module Pool = Argus_par.Pool
module Fault = Argus_rt.Fault

(* The batch contract: results come back in input order for any worker
   count, and one item's exception is that item's [Error] — never the
   whole batch's. *)

let test_jobs = [ 1; 2; 8 ]
let oks rs = List.map (function Ok y -> Some y | Error _ -> None) rs

let test_map_matches_sequential () =
  List.iter
    (fun jobs ->
      let xs = List.init 1003 (fun i -> (i * 7919) mod 257) in
      let f x = (x * x) + 1 in
      Alcotest.(check (list (option int)))
        (Printf.sprintf "input order jobs=%d" jobs)
        (List.map (fun x -> Some (f x)) xs)
        (oks (Pool.map_list_result ~jobs f xs)))
    test_jobs

let test_map_edge_sizes () =
  List.iter
    (fun jobs ->
      Alcotest.(check (list (option int)))
        (Printf.sprintf "empty jobs=%d" jobs)
        []
        (oks (Pool.map_list_result ~jobs succ []));
      Alcotest.(check (list (option int)))
        (Printf.sprintf "singleton jobs=%d" jobs)
        [ Some 42 ]
        (oks (Pool.map_list_result ~jobs succ [ 41 ])))
    (0 :: test_jobs)

let test_workers_capped_by_items () =
  (* A one-item batch runs on the calling domain; a three-item batch
     never uses more than three domains, whatever [jobs] says. *)
  let self = (Domain.self () :> int) in
  let on_domain _ = (Domain.self () :> int) in
  Alcotest.(check (list (option int)))
    "one item stays on the caller" [ Some self ]
    (oks (Pool.map_list_result ~jobs:8 on_domain [ () ]));
  let used =
    List.sort_uniq compare
      (List.filter_map Fun.id
         (oks (Pool.map_list_result ~jobs:8 on_domain [ (); (); () ])))
  in
  Alcotest.(check bool) "at most three domains" true (List.length used <= 3)

let test_exception_propagates () =
  (* Every item raising still returns normally, each slot carrying its
     own exception. *)
  List.iter
    (fun jobs ->
      let rs =
        Pool.map_list_result ~jobs
          (fun x -> failwith (string_of_int x))
          (List.init 50 Fun.id)
      in
      List.iteri
        (fun i r ->
          match r with
          | Error { Pool.exn = Failure m; _ } ->
              Alcotest.(check string)
                (Printf.sprintf "slot %d jobs=%d" i jobs)
                (string_of_int i) m
          | _ -> Alcotest.failf "slot %d not its own failure (jobs=%d)" i jobs)
        rs)
    test_jobs

let test_map_result_isolates () =
  List.iter
    (fun jobs ->
      let n = 200 in
      let results =
        Pool.map_list_result ~jobs
          (fun x -> if x mod 50 = 17 then failwith "boom" else x * 2)
          (List.init n Fun.id)
      in
      List.iteri
        (fun i r ->
          match r with
          | Ok y ->
              Alcotest.(check int)
                (Printf.sprintf "slot %d jobs=%d" i jobs)
                (i * 2) y
          | Error f ->
              Alcotest.(check bool)
                (Printf.sprintf "failure only where raised jobs=%d" jobs)
                true
                (i mod 50 = 17 && f.Pool.exn = Failure "boom"))
        results;
      Alcotest.(check int)
        (Printf.sprintf "failure count jobs=%d" jobs)
        4
        (List.length (List.filter Result.is_error results)))
    test_jobs

let test_map_result_injected_fault () =
  (* A fault injected at the per-item probe lands in exactly the keyed
     slot, whatever the worker count. *)
  List.iter
    (fun jobs ->
      let spec =
        { Fault.probe = "pool.task"; key = Some "17"; rate = 1.0; seed = 0 }
      in
      Fault.with_spec spec (fun () ->
          List.iteri
            (fun i r ->
              match (i, r) with
              | 17, Error { Pool.exn = Fault.Injected "pool.task"; _ } -> ()
              | 17, _ -> Alcotest.failf "slot 17 not faulted (jobs=%d)" jobs
              | _, Ok y -> Alcotest.(check int) "value" (i + 1) y
              | _, Error _ ->
                  Alcotest.failf "stray failure at %d (jobs=%d)" i jobs)
            (Pool.map_list_result ~jobs succ (List.init 64 Fun.id))))
    test_jobs;
  (* rate 0: no slot fails; rate 1 unkeyed: every slot fails. *)
  let all rate = { Fault.probe = "pool.task"; key = None; rate; seed = 9 } in
  let xs = List.init 64 Fun.id in
  Fault.with_spec (all 0.0) (fun () ->
      if List.exists Result.is_error (Pool.map_list_result ~jobs:4 succ xs)
      then Alcotest.fail "rate 0 must never fire");
  Fault.with_spec (all 1.0) (fun () ->
      if List.exists Result.is_ok (Pool.map_list_result ~jobs:4 succ xs) then
        Alcotest.fail "rate 1 must always fire")

let test_default_jobs_env () =
  (* ARGUS_JOBS wins when it is a positive integer; anything else falls
     back to the recommended domain count. *)
  let recommended = Domain.recommended_domain_count () in
  let saved = Option.value (Sys.getenv_opt "ARGUS_JOBS") ~default:"" in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "ARGUS_JOBS" saved)
    (fun () ->
      List.iter
        (fun (v, want) ->
          Unix.putenv "ARGUS_JOBS" v;
          Alcotest.(check int) (Printf.sprintf "ARGUS_JOBS=%S" v) want
            (Pool.default_jobs ()))
        [
          ("3", 3);
          (" 5 ", 5);
          ("0", recommended);
          ("-2", recommended);
          ("many", recommended);
          ("", recommended);
        ])

let test_counters_flow () =
  Argus_obs.Obs.reset ();
  ignore
    (Pool.map_list_result ~jobs:2
       (fun x -> if x mod 10 = 0 then failwith "boom" else x)
       (List.init 100 Fun.id));
  let count name =
    match List.assoc_opt name (Argus_obs.Metrics.counters ()) with
    | Some n -> n
    | None -> 0
  in
  Alcotest.(check int) "rt.tasks_failed counts captures" 10
    (count "rt.tasks_failed")

let () =
  Alcotest.run "argus-par"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "edge sizes" `Quick test_map_edge_sizes;
          Alcotest.test_case "workers capped by items" `Quick
            test_workers_capped_by_items;
          Alcotest.test_case "exceptions" `Quick test_exception_propagates;
          Alcotest.test_case "map_result isolates" `Quick
            test_map_result_isolates;
          Alcotest.test_case "map_result injected fault" `Quick
            test_map_result_injected_fault;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_env;
          Alcotest.test_case "counters" `Quick test_counters_flow;
        ] );
    ]
