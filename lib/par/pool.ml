module Metrics = Argus_obs.Metrics
module Fault = Argus_rt.Fault

let c_tasks_failed = Metrics.Counter.make "rt.tasks_failed"

type failure = { exn : exn; backtrace : Printexc.raw_backtrace }

let default_jobs () =
  match Sys.getenv_opt "ARGUS_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let capture i f x =
  try
    Fault.point ~key:(string_of_int i) "pool.task";
    Ok (f x)
  with e ->
    let backtrace = Printexc.get_raw_backtrace () in
    Metrics.Counter.incr c_tasks_failed;
    Error { exn = e; backtrace }

(* Each participant claims the next unclaimed index until none are
   left and writes its outcome into that index's slot; [Domain.join]
   publishes the helpers' writes before the slots are read. *)
let map_list_result ~jobs f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let out = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      out.(i) <- Some (capture i f items.(i));
      work ()
    end
  in
  let helpers =
    List.init (max 0 (min jobs n - 1)) (fun _ -> Domain.spawn work)
  in
  work ();
  List.iter Domain.join helpers;
  Array.to_list (Array.map Option.get out)
