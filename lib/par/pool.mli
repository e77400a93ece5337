(** File-level batch parallelism: an order-preserving map across OCaml
    domains with per-item failure capture.

    The one fan-out that measurably pays in Argus is [argus check]
    over several files, so this is all the runtime keeps
    (DESIGN.md §9).  {!map_list_result} spawns
    [min jobs (List.length xs) - 1] helper domains for the duration of
    one call, the calling domain works too, and items are claimed one
    at a time off an atomic cursor.  With [jobs = 1], or a single
    item, no domain is spawned at all.

    Fault isolation: an item that raises becomes that item's [Error]
    (with its backtrace); every other item still runs, and the
    [rt.tasks_failed] counter records each capture.  The ["pool.task"]
    fault probe of {!Argus_rt.Fault}, keyed by item index, lets tests
    inject failures deterministically (DESIGN.md §10). *)

type failure = { exn : exn; backtrace : Printexc.raw_backtrace }

val default_jobs : unit -> int
(** [$ARGUS_JOBS] when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]. *)

val map_list_result :
  jobs:int -> ('a -> 'b) -> 'a list -> ('b, failure) result list
(** [map_list_result ~jobs f xs] applies [f] to every item across at
    most [jobs] domains (values below 1 count as 1).  Results are in
    input order whatever the worker count. *)
