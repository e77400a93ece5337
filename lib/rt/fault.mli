(** Deterministic fault injection at named probe points.

    The engines and the pool call {!point} at their probe points (the
    table lives in DESIGN.md §10).  Normally this is a single load and
    branch — injection is off unless activated, either from the
    environment ([ARGUS_FAULT=probe[@key]:rate:seed]) or
    programmatically ({!with_spec}), in which case a matching probe
    raises {!Injected} with the configured probability.

    Draws are deterministic, never scheduling-dependent: a probe called
    with [?key] derives its decision purely from [(seed, probe, key)],
    so e.g. ["check.file"] keyed by filename fails the same files
    whatever [--jobs] is; an unkeyed probe draws from [(seed, probe,
    k)] where [k] is a global invocation counter — the multiset of
    firing draws is fixed by the seed, though which caller receives
    which draw may vary under parallelism.  With [rate >= 1] a matching
    probe always fires.

    Counter: [rt.faults_injected]. *)

type spec = {
  probe : string;  (** Probe point name, e.g. ["pool.task"]. *)
  key : string option;
      (** When set, only probe calls with this exact key match. *)
  rate : float;  (** Injection probability in [0, 1]. *)
  seed : int;
}

exception Injected of string
(** Raised by a firing probe; the payload is the probe name. *)

val parse_spec : string -> (spec, string) result
(** [probe:rate:seed] with an optional [@key] suffix on the probe name,
    e.g. ["check.file@g3.arg:1:42"] or ["pool.task:0.5:7"].  The seed
    may be omitted ([probe:rate]) and defaults to 0. *)

val set : spec option -> unit
(** Activate (or with [None] deactivate) injection process-wide.  Call
    before spawning worker domains. *)

val current : unit -> spec option

val configure_from_env : unit -> unit
(** Parse [ARGUS_FAULT] and {!set} the result; a malformed value is
    reported on stderr and ignored. *)

val with_spec : spec -> (unit -> 'a) -> 'a
(** Run with injection active, restoring the previous state after
    (also on exception) — the test harness entry point. *)

val point : ?key:string -> string -> unit
(** Declare a probe point.  No-op unless a matching spec is active and
    the deterministic draw fires, in which case it raises
    {!Injected}. *)
