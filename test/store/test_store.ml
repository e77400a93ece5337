(* The incremental store against its oracle: after every [put] and
   every [patch], [Store.verdict] must render byte-identically to a
   from-scratch [Fused.check ~lints:true] of the same structure — the
   memo, the dirty-cone re-checking and the digest bookkeeping must
   never show through in the report, and its root confidence must
   equal the Id.Map oracle's bit for bit.  Digests must be insensitive to
   insertion order, bounded memo eviction must never change results,
   and one store must serve concurrent domains. *)

module Id = Argus_core.Id
module Diagnostic = Argus_core.Diagnostic
module Evidence = Argus_core.Evidence
module Node = Argus_gsn.Node
module Structure = Argus_gsn.Structure
module Wellformed = Argus_gsn.Wellformed
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused
module Pool = Argus_par.Pool
module Confidence = Argus_confidence.Confidence
module Store = Argus_store.Store
module Wal = Argus_store.Wal
module Snapshot = Argus_store.Snapshot
module Recover = Argus_store.Recover
module Durable = Argus_store.Durable
module Fault = Argus_rt.Fault

let render ds = Format.asprintf "%a" Diagnostic.pp_report ds

(* The oracle: a full re-intern and fused pass, lints on. *)
let oracle ?(ruleset = Wellformed.Standard) s =
  Fused.check ~ruleset ~lints:true (Caseir.intern s)

let check_verdict ?ruleset store digest shadow =
  match Store.verdict store ~digest with
  | Error e -> Error ("verdict: " ^ Store.error_message e)
  | Ok v ->
      let full = oracle ?ruleset shadow in
      let got_wf = render v.Store.result.Fused.wf in
      let want_wf = render full.Fused.wf in
      let got_inf = render v.Store.result.Fused.informal in
      let want_inf = render full.Fused.informal in
      if got_wf <> want_wf then
        Error
          (Printf.sprintf "wf drift\n-- store --\n%s\n-- full --\n%s" got_wf
             want_wf)
      else if got_inf <> want_inf then
        Error
          (Printf.sprintf "informal drift\n-- store --\n%s\n-- full --\n%s"
             got_inf want_inf)
      else if Store.digest_of shadow <> digest then
        Error "store digest disagrees with digest_of the shadow structure"
      else
        let want =
          Oracle.Confidence.root_confidence ~trust:Store.default_trust shadow
        in
        if Int64.bits_of_float v.Store.confidence <> Int64.bits_of_float want
        then
          Error
            (Printf.sprintf "confidence drift: store %h, oracle %h"
               v.Store.confidence want)
        else Ok ()

(* --- generators --- *)

let texts =
  [|
    "The system is acceptably safe";
    "There is no evidence that failures occur";
    "The river bank erosion control scheme performs well";
    "All inputs are always validated";
    "Deadlock is impossible in every mode";
    "";
    "Claim {TBD} is pending";
    "Argue over hazards";
    "Test report";
  |]

let evidence_table =
  [
    Evidence.make ~id:(Id.of_string "E0") ~kind:Evidence.Test_results "tests";
    Evidence.make ~id:(Id.of_string "E1") ~kind:Evidence.Expert_judgement
      "opinion";
  ]

let mk_node i tcode scode text ecode =
  let node_type =
    match tcode with
    | 0 | 1 -> Node.Goal
    | 2 -> Node.Strategy
    | 3 -> Node.Solution
    | 4 -> Node.Context
    | 5 -> Node.Assumption
    | _ -> Node.Away_goal (Id.of_string "M1")
  in
  let status =
    match scode with
    | 0 | 1 -> Node.Developed
    | 2 -> Node.Undeveloped
    | 3 -> Node.Uninstantiated
    | _ -> Node.Undeveloped_uninstantiated
  in
  let evidence =
    if node_type = Node.Solution then
      match ecode with
      | 0 -> Some (Id.of_string "E0")
      | 1 -> Some (Id.of_string "E1")
      | 2 -> Some (Id.of_string "Emissing")
      | _ -> None
    else None
  in
  Node.make
    ~id:(Id.of_string (Printf.sprintf "N%d" i))
    ~node_type ~status ?evidence
    texts.(text mod Array.length texts)

let gen_node i =
  let open QCheck.Gen in
  map2
    (fun (tcode, scode) (text, ecode) -> mk_node i tcode scode text ecode)
    (pair (int_bound 6) (int_bound 4))
    (pair (int_bound (Array.length texts - 1)) (int_bound 3))

let gen_link n =
  let open QCheck.Gen in
  map2
    (fun (kind, dangle) (a, b) ->
      let name j = Printf.sprintf "N%d" j in
      let src = if dangle = 0 then "Nowhere" else name (a mod n) in
      let dst = if dangle = 1 then "Nada" else name (b mod n) in
      ( (if kind then Structure.Supported_by else Structure.In_context_of),
        src,
        dst ))
    (pair bool (int_bound 11))
    (pair (int_bound (n - 1)) (int_bound (n - 1)))

let gen_structure =
  let open QCheck.Gen in
  int_range 1 8 >>= fun n ->
  pair (flatten_l (List.init n gen_node)) (list_size (int_range 0 12) (gen_link n))
  |> map (fun (nodes, links) ->
         Structure.of_nodes ~links ~evidence:evidence_table nodes)

(* A random edit against a pool of n node names.  Set-texts target
   existing nodes; shape edits may hit anything, including nodes that
   are not there (rejected batches must leave the store untouched). *)
let gen_edit n =
  let open QCheck.Gen in
  let name = map (fun j -> Id.of_string (Printf.sprintf "N%d" (j mod n))) in
  int_bound 9 >>= function
  | 0 | 1 | 2 | 3 ->
      map2
        (fun id t -> Store.Set_text (id, texts.(t mod Array.length texts)))
        (name (int_bound (n - 1)))
        (int_bound (Array.length texts - 1))
  | 4 ->
      map2
        (fun (tcode, scode) (text, ecode) ->
          Store.Add_node (mk_node (n + (text mod 3)) tcode scode text ecode))
        (pair (int_bound 6) (int_bound 4))
        (pair (int_bound (Array.length texts - 1)) (int_bound 3))
  | 5 -> map (fun id -> Store.Remove_node id) (name (int_bound (2 * n)))
  | 6 | 7 ->
      map2
        (fun k (a, b) ->
          Store.Link
            ((if k then Structure.Supported_by else Structure.In_context_of),
             a, b))
        bool
        (pair (name (int_bound (n - 1))) (name (int_bound (n + 2))))
  | _ ->
      map2
        (fun k (a, b) ->
          Store.Unlink
            ((if k then Structure.Supported_by else Structure.In_context_of),
             a, b))
        bool
        (pair (name (int_bound (n - 1))) (name (int_bound (n + 2))))

(* Batches of 1-3 edits, 4-8 batches per case. *)
let gen_case_and_edits =
  let open QCheck.Gen in
  gen_structure >>= fun s ->
  let n = max 1 (Structure.size s) in
  list_size (int_range 4 8) (list_size (int_range 1 3) (gen_edit n))
  >>= fun batches -> return (s, batches)

let print_scenario (s, batches) =
  Format.asprintf "%a (then %d batches)" Structure.pp_outline s
    (List.length batches)

(* Drive one scenario against one store; the shadow structure is the
   oracle's view.  Rejected batches must leave digest and state
   alone. *)
let drive store (s, batches) =
  let ( let* ) = Result.bind in
  let digest0 = Store.put store s in
  let* () = check_verdict store digest0 s in
  let apply_shadow shadow batch =
    List.fold_left
      (fun acc e ->
        match e with
        | Store.Set_text (id, text) -> (
            match Structure.find id acc with
            | None -> acc
            | Some n ->
                Structure.add_node
                  (Node.make ~id ~node_type:n.Node.node_type
                     ~status:n.Node.status ?formal:n.Node.formal
                     ~annotations:n.Node.annotations ?evidence:n.Node.evidence
                     text)
                  acc)
        | Store.Add_node n -> Structure.add_node n acc
        | Store.Remove_node id -> Structure.remove_node id acc
        | Store.Link (k, src, dst) -> Structure.connect k ~src ~dst acc
        | Store.Unlink (k, src, dst) -> Structure.disconnect k ~src ~dst acc)
      shadow batch
  in
  let rec go shadow digest = function
    | [] -> Ok ()
    | batch :: rest -> (
        match Store.patch store ~digest batch with
        | Error (Store.Unknown_digest _ as e) ->
            Error ("patch: " ^ Store.error_message e)
        | Error (Store.Bad_edit _) ->
            let* () = check_verdict store digest shadow in
            go shadow digest rest
        | Ok digest' ->
            let shadow' = apply_shadow shadow batch in
            let* () = check_verdict store digest' shadow' in
            go shadow' digest' rest)
  in
  go s digest0 batches

let incremental_matches_full =
  QCheck.Test.make
    ~name:"incremental verdict = full fused check (random edit sequences)"
    ~count:200
    (QCheck.make ~print:print_scenario gen_case_and_edits)
    (fun scenario ->
      let store = Store.create () in
      match drive store scenario with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* The confidence kernel against the Id.Map oracle, bit for bit, on
   larger random graphs than the edit scenarios use: cycles, dangling
   children, several roots and contextual roots all turn up.  Two
   trusts, so the floats are not all one power of 0.9. *)
let trusts =
  [
    ("uniform", Store.default_trust);
    ( "per-item",
      fun ev -> if Id.to_string ev.Evidence.id = "E0" then 0.7 else 0.35 );
  ]

let gen_graph =
  let open QCheck.Gen in
  int_range 1 20 >>= fun n ->
  pair (flatten_l (List.init n gen_node)) (list_size (int_range 0 40) (gen_link n))
  |> map (fun (nodes, links) ->
         Structure.of_nodes ~links ~evidence:evidence_table nodes)

let confidence_matches_oracle =
  QCheck.Test.make ~name:"confidence = Id.Map oracle, bit for bit" ~count:500
    (QCheck.make
       ~print:(fun s -> Format.asprintf "%a" Structure.pp_outline s)
       gen_graph)
    (fun s ->
      let bits m =
        List.map
          (fun (id, c) -> (Id.to_string id, Int64.bits_of_float c))
          (Id.Map.bindings m)
      in
      List.for_all
        (fun (name, trust) ->
          let got = Confidence.root_confidence ~trust s
          and want = Oracle.Confidence.root_confidence ~trust s in
          if Int64.bits_of_float got <> Int64.bits_of_float want then
            QCheck.Test.fail_reportf "%s root: kernel %h, oracle %h" name got
              want
          else if
            bits (Confidence.assess ~trust s)
            <> bits (Oracle.Confidence.assess ~trust s)
          then QCheck.Test.fail_reportf "%s: assess maps differ" name
          else true)
        trusts)

(* A tiny memo forces constant eviction; results must not move. *)
let eviction_never_changes_results =
  QCheck.Test.make ~name:"bounded memo eviction never changes results"
    ~count:60
    (QCheck.make ~print:print_scenario gen_case_and_edits)
    (fun scenario ->
      let store = Store.create ~memo_capacity:1 () in
      match drive store scenario with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* Rebuild the structure with nodes, links and evidence inserted in
   reverse order: structurally equal, so digests must agree. *)
let reversed s =
  let s' =
    List.fold_left
      (fun acc n -> Structure.add_node n acc)
      Structure.empty
      (List.rev (Structure.nodes s))
  in
  let s' =
    List.fold_left
      (fun acc (k, src, dst) -> Structure.connect k ~src ~dst acc)
      s'
      (List.rev (Structure.links s))
  in
  List.fold_left
    (fun acc ev -> Structure.add_evidence ev acc)
    s'
    (List.rev (Structure.evidence s))

let digest_order_independent =
  QCheck.Test.make ~name:"digests ignore insertion order" ~count:300
    (QCheck.make
       ~print:(fun s -> Format.asprintf "%a" Structure.pp_outline s)
       gen_structure)
    (fun s ->
      let s' = reversed s in
      if not (Structure.equal s s') then
        QCheck.Test.fail_report "reversal changed the structure"
      else if Store.digest_of s <> Store.digest_of s' then
        QCheck.Test.fail_report "insertion order leaked into the digest"
      else true)

(* Distinct structures should (essentially always) digest apart; catch
   gross collisions like ignoring links or texts. *)
let digest_separates =
  let s1 =
    Structure.of_nodes
      ~links:[ (Structure.Supported_by, "G1", "G2") ]
      [ Node.goal "G1" "A holds"; Node.goal "G2" "B holds" ]
  in
  let s2 =
    Structure.of_nodes
      ~links:[ (Structure.Supported_by, "G2", "G1") ]
      [ Node.goal "G1" "A holds"; Node.goal "G2" "B holds" ]
  in
  let s3 =
    Structure.of_nodes
      ~links:[ (Structure.Supported_by, "G1", "G2") ]
      [ Node.goal "G1" "A holds"; Node.goal "G2" "C holds" ]
  in
  (* A cyclic and an acyclic case one link apart. *)
  let c1 =
    Structure.of_nodes
      ~links:
        [
          (Structure.Supported_by, "G1", "G2");
          (Structure.Supported_by, "G2", "G1");
        ]
      [ Node.goal "G1" "A holds"; Node.goal "G2" "B holds" ]
  in
  (* The same endpoints under the other link kind. *)
  let k1 =
    Structure.of_nodes
      ~links:[ (Structure.In_context_of, "G1", "G2") ]
      [ Node.goal "G1" "A holds"; Node.goal "G2" "B holds" ]
  in
  (* One source linked to either of two targets. *)
  let t1 =
    Structure.of_nodes
      ~links:[ (Structure.Supported_by, "G1", "G2") ]
      [ Node.goal "G1" "A holds"; Node.goal "G2" "B holds"; Node.goal "G3" "C" ]
  in
  let t2 =
    Structure.of_nodes
      ~links:[ (Structure.Supported_by, "G1", "G3") ]
      [ Node.goal "G1" "A holds"; Node.goal "G2" "B holds"; Node.goal "G3" "C" ]
  in
  (* The same nodes and links over two evidence tables. *)
  let e1 =
    Structure.of_nodes
      ~evidence:
        [ Evidence.make ~id:(Id.of_string "E0") ~kind:Evidence.Analysis "a" ]
      [ Node.goal "G1" "A holds" ]
  in
  let e2 =
    Structure.of_nodes
      ~evidence:
        [ Evidence.make ~id:(Id.of_string "E0") ~kind:Evidence.Review "a" ]
      [ Node.goal "G1" "A holds" ]
  in
  (* Links out of dangling entities must be visible to the digest. *)
  let d1 =
    Structure.of_nodes
      ~links:
        [
          (Structure.Supported_by, "G1", "Gx");
          (Structure.Supported_by, "Gx", "Gy");
        ]
      [ Node.goal "G1" "A holds" ]
  in
  let d2 =
    Structure.of_nodes
      ~links:[ (Structure.Supported_by, "G1", "Gx") ]
      [ Node.goal "G1" "A holds" ]
  in
  fun () ->
    let all = [ s1; s2; s3; c1; k1; t1; t2; e1; e2; d1; d2 ] in
    List.iteri
      (fun i a ->
        List.iteri
          (fun j b ->
            if i < j then
              Alcotest.(check bool)
                (Printf.sprintf "digests of distinct cases %d/%d differ" i j)
                false
                (Store.digest_of a = Store.digest_of b))
          all)
      all

(* The same case is the same case: re-putting is idempotent and a
   patch cycle that undoes itself returns to the original digest. *)
let test_digest_roundtrip () =
  let s =
    Structure.of_nodes
      ~links:
        [
          (Structure.Supported_by, "G1", "S1");
          (Structure.Supported_by, "S1", "G2");
        ]
      [
        Node.goal "G1" "The system is acceptably safe";
        Node.strategy "S1" "Argue over hazards";
        Node.goal "G2" "Hazard H1 is mitigated";
      ]
  in
  let store = Store.create () in
  let d0 = Store.put store s in
  Alcotest.(check string) "idempotent put" d0 (Store.put store s);
  let g2 = Id.of_string "G2" in
  let d1 =
    match Store.patch store ~digest:d0 [ Store.Set_text (g2, "Changed") ] with
    | Ok d -> d
    | Error e -> Alcotest.fail (Store.error_message e)
  in
  Alcotest.(check bool) "edit moved the digest" true (d0 <> d1);
  let d2 =
    match
      Store.patch store ~digest:d1
        [ Store.Set_text (g2, "Hazard H1 is mitigated") ]
    with
    | Ok d -> d
    | Error e -> Alcotest.fail (Store.error_message e)
  in
  Alcotest.(check string) "undo returns to the original digest" d0 d2

let test_errors () =
  Alcotest.check_raises "memo capacity below 1"
    (Invalid_argument "Store.create: memo_capacity < 1") (fun () ->
      ignore (Store.create ~memo_capacity:0 ()));
  let store = Store.create () in
  (match Store.patch store ~digest:"nope" [] with
  | Error (Store.Unknown_digest _) -> ()
  | _ -> Alcotest.fail "patch of unknown digest must fail");
  (match Store.verdict store ~digest:"nope" with
  | Error (Store.Unknown_digest _) -> ()
  | _ -> Alcotest.fail "verdict of unknown digest must fail");
  let s = Structure.of_nodes [ Node.goal "G1" "A holds" ] in
  let d = Store.put store s in
  match
    Store.patch store ~digest:d
      [ Store.Set_text (Id.of_string "Gmissing", "x") ]
  with
  | Error (Store.Bad_edit _) ->
      Alcotest.(check bool) "store untouched" true (Store.mem store d)
  | _ -> Alcotest.fail "set-text of a missing node must fail"

(* Verdict caching: the second verdict of an unchanged case comes from
   the assembled cache; confidence survives a pure text edit. *)
let test_memoization () =
  let s =
    Structure.of_nodes
      ~links:[ (Structure.Supported_by, "G1", "Sn1") ]
      ~evidence:
        [
          Evidence.make ~id:(Id.of_string "E0") ~kind:Evidence.Test_results
            "tests";
        ]
      [
        Node.goal "G1" "The system is acceptably safe";
        Node.solution ~evidence:"E0" "Sn1" "Test report";
      ]
  in
  let store = Store.create () in
  let d = Store.put store s in
  let v1 =
    match Store.verdict store ~digest:d with
    | Ok v -> v
    | Error e -> Alcotest.fail (Store.error_message e)
  in
  Alcotest.(check bool) "first verdict is assembled" false v1.Store.from_memo;
  let v2 =
    match Store.verdict store ~digest:d with
    | Ok v -> v
    | Error e -> Alcotest.fail (Store.error_message e)
  in
  Alcotest.(check bool) "second verdict is cached" true v2.Store.from_memo;
  Alcotest.(check (float 0.)) "same confidence" v1.Store.confidence
    v2.Store.confidence

(* [f] over [xs] across [jobs] domains, in input order; an item that
   raised re-raises here, failing the test. *)
let across_domains ~jobs f xs =
  List.map
    (function
      | Ok y -> y
      | Error { Pool.exn; backtrace } ->
          Printexc.raise_with_backtrace exn backtrace)
    (Pool.map_list_result ~jobs f xs)

(* One store, many domains: disjoint scenarios driven concurrently
   through a shared store must all hold the differential property. *)
let concurrent_differential jobs () =
  let scenarios =
    let seed = ref 42 in
    Array.to_list
      (Array.init 16 (fun i ->
           seed := (!seed * 25214903917) + i;
           let rand = Random.State.make [| !seed; i |] in
           QCheck.Gen.generate1 ~rand gen_case_and_edits))
  in
  let store = Store.create () in
  let results = across_domains ~jobs (fun sc -> drive store sc) scenarios in
  List.iteri
    (fun i r ->
      match r with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (Printf.sprintf "scenario %d: %s" i msg))
    results

(* --- durability: WAL + snapshots + recovery + degraded mode --- *)

let temp_dir () =
  let f = Filename.temp_file "argus-store-test" "" in
  Sys.remove f;
  f

let rm_rf dir =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let with_dir f =
  let dir = temp_dir () in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* The corruption fuzz injects its own deterministic damage; ambient
   fault injection (the CI fault matrix) would make its setup phases
   flaky, so it is masked for the scope of each fuzz test. *)
let without_faults f =
  let saved = Fault.current () in
  Fault.set None;
  Fun.protect ~finally:(fun () -> Fault.set saved) f

let base_structure =
  Structure.of_nodes
    ~links:
      [
        (Structure.Supported_by, "G1", "S1");
        (Structure.Supported_by, "S1", "G2");
        (Structure.Supported_by, "S1", "G3");
      ]
    [
      Node.goal "G1" "The system is acceptably safe";
      Node.strategy "S1" "Argue over hazards";
      Node.goal "G2" "Hazard H1 is mitigated";
      Node.goal "G3" "Hazard H2 is mitigated";
    ]

let nth_edit i =
  [ Store.Set_text (Id.of_string "G2", Printf.sprintf "Revision %d" i) ]

(* Build a durable dir with [ops] set-text patches after the initial
   put, sync always so every record is complete on disk.  Returns the
   acked digest sequence (put first) and the shadow structure at each
   step, plus the WAL size after each record — the record boundaries
   the torn-tail fuzz cuts at. *)
let build_history ?snapshot_every ~ops dir =
  let durable, _ =
    match Durable.create ~dir ~sync:Wal.Always ?snapshot_every () with
    | Ok x -> x
    | Error e -> Alcotest.failf "durable create failed: %s" e
  in
  let wal = Recover.wal_path dir in
  let wal_size () = (Unix.stat wal).Unix.st_size in
  let d0 =
    match Durable.put durable base_structure with
    | Ok d -> d
    | Error e -> Alcotest.failf "put failed: %s" (Durable.error_message e)
  in
  let digests = ref [ d0 ] in
  let shadows = ref [ base_structure ] in
  let sizes = ref [ wal_size () ] in
  let apply_shadow shadow = function
    | [ Store.Set_text (id, text) ] ->
        let n = Option.get (Structure.find id shadow) in
        Structure.add_node
          (Node.make ~id ~node_type:n.Node.node_type ~status:n.Node.status
             ?formal:n.Node.formal ~annotations:n.Node.annotations
             ?evidence:n.Node.evidence text)
          shadow
    | _ -> assert false
  in
  for i = 1 to ops do
    let batch = nth_edit i in
    match Durable.patch durable ~digest:(List.hd !digests) batch with
    | Error e -> Alcotest.failf "patch %d failed: %s" i (Durable.error_message e)
    | Ok d ->
        digests := d :: !digests;
        shadows := apply_shadow (List.hd !shadows) batch :: !shadows;
        sizes := wal_size () :: !sizes
  done;
  Durable.close durable;
  (List.rev !digests, List.rev !shadows, List.rev !sizes)

(* Recover a dir and demand exactly one live case, byte-identical in
   verdict to the full fused check of the shadow it should hold. *)
let check_recovered ?(msg = "recovered") dir expected_digest shadow =
  match Recover.load ~dir () with
  | Error e -> Alcotest.failf "%s: recovery refused: %s" msg e
  | Ok outcome ->
      let store = outcome.Recover.store in
      (match Store.cases store with
      | [ (d, _, _) ] ->
          Alcotest.(check string) (msg ^ ": digest") expected_digest d
      | cases ->
          Alcotest.failf "%s: expected 1 case, recovered %d" msg
            (List.length cases));
      (match check_verdict store expected_digest shadow with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" msg e)

let test_recover_roundtrip () =
  without_faults @@ fun () ->
  with_dir @@ fun dir ->
  let digests, shadows, _ = build_history ~ops:6 dir in
  let final_digest = List.nth digests 6 in
  let final_shadow = List.nth shadows 6 in
  check_recovered ~msg:"clean restart" dir final_digest final_shadow;
  (* Recovery is idempotent: a second restart sees the same state. *)
  check_recovered ~msg:"second restart" dir final_digest final_shadow;
  (* And reopening through Durable keeps accepting writes. *)
  match Durable.create ~dir ~sync:Wal.Always () with
  | Error e -> Alcotest.failf "reopen failed: %s" e
  | Ok (durable, _) -> (
      match Durable.patch durable ~digest:final_digest (nth_edit 99) with
      | Error e ->
          Alcotest.failf "patch after recovery failed: %s"
            (Durable.error_message e)
      | Ok _ -> Durable.close durable)

let test_snapshot_compaction () =
  without_faults @@ fun () ->
  with_dir @@ fun dir ->
  let digests, shadows, _ = build_history ~snapshot_every:4 ~ops:10 dir in
  Alcotest.(check bool)
    "a snapshot was written" true
    (Snapshot.latest dir <> None);
  (* The WAL was reset at the snapshot: it holds only the tail. *)
  (match Recover.load ~dir () with
  | Error e -> Alcotest.failf "recovery refused: %s" e
  | Ok outcome ->
      Alcotest.(check bool)
        "snapshot carries most of the history" true
        (outcome.Recover.snapshot_seq >= 4);
      Alcotest.(check bool)
        "only the tail replays" true
        (outcome.Recover.replayed <= 11 - outcome.Recover.snapshot_seq));
  check_recovered ~msg:"snapshot + tail" dir (List.nth digests 10)
    (List.nth shadows 10)

(* Torn-tail fuzz: cut the WAL at every byte offset inside the final
   record; recovery must restore the state just before it, truncate
   the torn bytes on disk, and leave the shortened log clean. *)
let test_torn_tail_every_offset () =
  without_faults @@ fun () ->
  with_dir @@ fun dir ->
  let digests, shadows, sizes = build_history ~ops:4 dir in
  let wal = Recover.wal_path dir in
  let pristine = In_channel.with_open_bin wal In_channel.input_all in
  let last_start = List.nth sizes 3 in
  let last_end = List.nth sizes 4 in
  Alcotest.(check int) "history is intact" last_end (String.length pristine);
  for cut = last_start to last_end - 1 do
    with_dir @@ fun dir' ->
    Out_channel.with_open_bin (Recover.wal_path dir') (fun oc ->
        Out_channel.output_string oc (String.sub pristine 0 cut));
    check_recovered
      ~msg:(Printf.sprintf "cut at byte %d" cut)
      dir' (List.nth digests 3) (List.nth shadows 3);
    (* The torn bytes are gone from disk: the next recovery parses a
       clean log. *)
    match Recover.load ~dir:dir' () with
    | Error e -> Alcotest.failf "re-recovery at %d refused: %s" cut e
    | Ok o ->
        Alcotest.(check int)
          (Printf.sprintf "no torn bytes left after cut %d" cut)
          0 o.Recover.truncated
  done

(* Bit-flip fuzz: flip one byte at every offset of the final record
   (covering its length, checksum and payload regions) and one byte
   per region of an interior record.  Each damaged log must either
   recover a checksum-valid prefix of the committed history or be
   refused with the corruption diagnostic — never crash, hang, or
   resurrect a state that was never committed. *)
let test_bit_flip_fuzz () =
  without_faults @@ fun () ->
  with_dir @@ fun dir ->
  let digests, shadows, sizes = build_history ~ops:4 dir in
  let wal = Recover.wal_path dir in
  let pristine = In_channel.with_open_bin wal In_channel.input_all in
  let check_flip ~expect_refusal offset =
    with_dir @@ fun dir' ->
    let damaged = Bytes.of_string pristine in
    Bytes.set damaged offset
      (Char.chr (Char.code (Bytes.get damaged offset) lxor 0x40));
    Out_channel.with_open_bin (Recover.wal_path dir') (fun oc ->
        Out_channel.output_bytes oc damaged);
    match Recover.load ~dir:dir' () with
    | Error diagnostic ->
        Alcotest.(check bool)
          (Printf.sprintf "flip at %d: diagnostic names the problem" offset)
          true
          (String.length diagnostic > 0)
    | Ok outcome ->
        if expect_refusal then
          Alcotest.failf
            "flip at %d (interior record) must refuse, recovered %d cases"
            offset
            (Store.size outcome.Recover.store);
        (* A survivable flip must land on a committed prefix, verdicts
           intact. *)
        let store = outcome.Recover.store in
        (match Store.cases store with
        | [ (d, _, _) ] -> (
            match
              List.find_index (fun x -> String.equal x d) digests
            with
            | None ->
                Alcotest.failf
                  "flip at %d resurrected digest %s that was never committed"
                  offset d
            | Some i -> (
                match check_verdict store d (List.nth shadows i) with
                | Ok () -> ()
                | Error e -> Alcotest.failf "flip at %d: %s" offset e))
        | [] -> ()
        | cases ->
            Alcotest.failf "flip at %d: recovered %d cases from 1-case history"
              offset (List.length cases))
  in
  (* Every byte of the final record. *)
  let last_start = List.nth sizes 3 in
  let last_end = List.nth sizes 4 in
  for offset = last_start to last_end - 1 do
    check_flip ~expect_refusal:false offset
  done;
  (* Interior record (records follow it, so a checksum failure there
     is mid-stream corruption): its payload must refuse outright. *)
  let mid_start = List.nth sizes 1 in
  check_flip ~expect_refusal:true (mid_start + 8);
  check_flip ~expect_refusal:true (mid_start + 12);
  (* An interior length/checksum flip may reclassify the damage as a
     torn tail (shorter prefix) — allowed — but must never crash or
     invent state; [expect_refusal:false] still forbids uncommitted
     digests. *)
  check_flip ~expect_refusal:false mid_start;
  check_flip ~expect_refusal:false (mid_start + 4)

(* A log corrupted mid-stream must also refuse end-to-end: reopening
   through Durable (what `argus serve --data-dir` does) reports the
   diagnostic instead of starting empty. *)
let test_corrupt_refused_end_to_end () =
  without_faults @@ fun () ->
  with_dir @@ fun dir ->
  let _, _, sizes = build_history ~ops:4 dir in
  let wal = Recover.wal_path dir in
  let data = Bytes.of_string (In_channel.with_open_bin wal In_channel.input_all) in
  let mid = List.nth sizes 1 + 8 in
  Bytes.set data mid (Char.chr (Char.code (Bytes.get data mid) lxor 0xff));
  Out_channel.with_open_bin wal (fun oc -> Out_channel.output_bytes oc data);
  match Durable.create ~dir ~sync:Wal.Always () with
  | Ok _ -> Alcotest.fail "corrupted log must refuse to open"
  | Error diagnostic ->
      Alcotest.(check bool)
        "diagnostic says mid-stream" true
        (let has needle =
           let nh = String.length diagnostic and nn = String.length needle in
           let rec go i =
             i + nn <= nh
             && (String.sub diagnostic i nn = needle || go (i + 1))
           in
           go 0
         in
         has "mid-stream" || has "checksum")

(* A data dir written under an earlier on-disk format — its WAL or its
   newest snapshot carries format-1 magic — is refused with both
   formats named, not replayed: format 1 logged case digests of another
   scheme, so it would otherwise read as a log that does not describe
   its store (or, empty, as a fresh start). *)
let test_old_format_refused () =
  without_faults @@ fun () ->
  let refused what dir =
    match Durable.create ~dir ~sync:Wal.Always () with
    | Ok _ -> Alcotest.failf "%s of format 1 must refuse to open" what
    | Error diagnostic ->
        let has needle =
          let nh = String.length diagnostic and nn = String.length needle in
          let rec go i =
            i + nn <= nh && (String.sub diagnostic i nn = needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s diagnostic names both formats: %s" what
             diagnostic)
          true
          (has "format 1" && has (Printf.sprintf "format %d" Wal.format))
  in
  (with_dir @@ fun dir ->
   Out_channel.with_open_bin (Recover.wal_path dir) (fun oc ->
       output_string oc "ARGUSWAL1\n");
   refused "WAL" dir);
  with_dir @@ fun dir ->
  let payload = Marshal.to_string { Snapshot.seq = 3; cases = [] } [] in
  Out_channel.with_open_bin
    (Filename.concat dir (Snapshot.filename ~seq:3))
    (fun oc ->
      output_string oc
        ("ARGUSSNAP1\n"
        ^ Wal.u32le (String.length payload)
        ^ Wal.u32le (Wal.crc32 payload)
        ^ payload));
  refused "snapshot" dir

(* Injected I/O faults trip read-only, stick, and never lose acked
   state: after reopening the dir, everything acked before the fault
   is back and verdicts are byte-identical. *)
let test_fault_trips_read_only () =
  without_faults @@ fun () ->
  with_dir @@ fun dir ->
  let durable, _ =
    match Durable.create ~dir ~sync:Wal.Always () with
    | Ok x -> x
    | Error e -> Alcotest.failf "create failed: %s" e
  in
  let d0 =
    match Durable.put durable base_structure with
    | Ok d -> d
    | Error e -> Alcotest.failf "put failed: %s" (Durable.error_message e)
  in
  let spec =
    match Fault.parse_spec "store.wal.append@2:1:5" with
    | Ok s -> s
    | Error e -> Alcotest.failf "bad spec: %s" e
  in
  (match
     Fault.with_spec spec (fun () ->
         Durable.patch durable ~digest:d0 (nth_edit 1))
   with
  | Error (Durable.Read_only cause) ->
      Alcotest.(check bool)
        "cause names the probe" true
        (String.length cause > 0)
  | Error e -> Alcotest.failf "expected read-only, got %s" (Durable.error_message e)
  | Ok _ -> Alcotest.fail "append fault must refuse the write");
  (* Sticky after the fault window closes; the rolled-back patch left
     the acked digest live. *)
  (match Durable.patch durable ~digest:d0 (nth_edit 2) with
  | Error (Durable.Read_only _) -> ()
  | _ -> Alcotest.fail "read-only must stick");
  (match Durable.verdict durable ~digest:d0 with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "read in degraded mode failed: %s"
        (Durable.error_message e));
  Durable.close durable;
  check_recovered ~msg:"after degraded shutdown" dir d0 base_structure

(* A snapshot failure must degrade without losing the operation that
   triggered it — the WAL still holds every record. *)
let test_snapshot_fault_degrades () =
  without_faults @@ fun () ->
  with_dir @@ fun dir ->
  let durable, _ =
    match Durable.create ~dir ~sync:Wal.Always ~snapshot_every:1 () with
    | Ok x -> x
    | Error e -> Alcotest.failf "create failed: %s" e
  in
  let spec =
    match Fault.parse_spec "store.snapshot.write:1:5" with
    | Ok s -> s
    | Error e -> Alcotest.failf "bad spec: %s" e
  in
  let d0 =
    match
      Fault.with_spec spec (fun () -> Durable.put durable base_structure)
    with
    | Ok d -> d
    | Error e ->
        Alcotest.failf "the logged op itself must ack: %s"
          (Durable.error_message e)
  in
  Alcotest.(check bool)
    "snapshot fault degrades" true
    (match Durable.mode durable with
    | Durable.Read_only _ -> true
    | Durable.Active -> false);
  Durable.close durable;
  check_recovered ~msg:"WAL survives the failed snapshot" dir d0
    base_structure

(* A fault while reading during recovery surfaces as a diagnostic, not
   a crash or a silently empty store. *)
let test_recover_read_fault () =
  without_faults @@ fun () ->
  with_dir @@ fun dir ->
  let _ = build_history ~ops:2 dir in
  let spec =
    match Fault.parse_spec "store.recover.read@wal:1:5" with
    | Ok s -> s
    | Error e -> Alcotest.failf "bad spec: %s" e
  in
  match Fault.with_spec spec (fun () -> Durable.create ~dir ()) with
  | Ok _ -> Alcotest.fail "recovery under a read fault must refuse"
  | Error diagnostic ->
      Alcotest.(check bool)
        "diagnostic names the injected fault" true
        (let needle = "injected fault" in
         let nh = String.length diagnostic and nn = String.length needle in
         let rec go i =
           i + nn <= nh && (String.sub diagnostic i nn = needle || go (i + 1))
         in
         go 0)

(* The durable differential: scenarios driven through Durable handles
   (one data dir each) across domains.  Under ambient fault injection
   (the CI fault matrix sets ARGUS_FAULT for each store probe) writes
   may trip read-only at any point; the property is that every ack is
   honest — whatever was acked is byte-identical after recovery — and
   nothing ever crashes.  Without ambient faults it degenerates to a
   full durability round-trip per scenario. *)
let durable_differential jobs () =
  let scenarios = List.init 8 (fun i -> 3 + (i mod 4)) in
  let run_one ops =
    with_dir @@ fun dir ->
    match Durable.create ~dir ~sync:Wal.Always () with
    | Error e ->
        (* Only an injected recovery fault may refuse a fresh dir. *)
        if Fault.current () = None then
          Alcotest.failf "fresh create refused: %s" e
    | Ok (durable, _) ->
        let acked = ref [] in
        let shadow = ref base_structure in
        (match Durable.put durable base_structure with
        | Ok d -> acked := [ (d, base_structure) ]
        | Error (Durable.Read_only _) -> ()
        | Error e -> Alcotest.failf "put: %s" (Durable.error_message e));
        (try
           for i = 1 to ops do
             match !acked with
             | [] -> raise Exit
             | (digest, _) :: _ -> (
                 match Durable.patch durable ~digest (nth_edit i) with
                 | Ok d ->
                     let n =
                       Option.get (Structure.find (Id.of_string "G2") !shadow)
                     in
                     shadow :=
                       Structure.add_node
                         (Node.make ~id:(Id.of_string "G2")
                            ~node_type:n.Node.node_type ~status:n.Node.status
                            ?formal:n.Node.formal
                            ~annotations:n.Node.annotations
                            ?evidence:n.Node.evidence
                            (Printf.sprintf "Revision %d" i))
                         !shadow;
                     acked := (d, !shadow) :: !acked
                 | Error (Durable.Read_only _) ->
                     (* Degraded: acked reads must still be consistent,
                        then this scenario is done writing. *)
                     (match !acked with
                     | (d, s) :: _ -> (
                         match
                           check_verdict (Durable.store durable) d s
                         with
                         | Ok () -> ()
                         | Error e ->
                             Alcotest.failf "degraded read drifted: %s" e)
                     | [] -> ());
                     raise Exit
                 | Error e ->
                     Alcotest.failf "patch: %s" (Durable.error_message e))
           done
         with Exit -> ());
        Durable.close durable;
        (* Recovery under ambient faults may refuse (injected read
           fault) — that is a diagnostic, not a loss.  When it
           answers, the recovered state must be internally verified
           (recover re-checks every digest) and verdicts must be
           byte-identical to the fused oracle of the recovered
           structure. *)
        (match Recover.load ~dir () with
        | Error e ->
            if Fault.current () = None then
              Alcotest.failf "recovery refused without faults: %s" e
        | Ok outcome -> (
            let store = outcome.Recover.store in
            List.iter
              (fun (d, _, structure) ->
                match check_verdict store d structure with
                | Ok () -> ()
                | Error e ->
                    Alcotest.failf "recovered verdict drifted: %s" e)
              (Store.cases store);
            (* Without ambient faults every ack must be back. *)
            if Fault.current () = None then
              match (!acked, Store.cases store) with
              | (d, _) :: _, [ (d', _, _) ] ->
                  Alcotest.(check string) "last ack recovered" d d'
              | (_, _) :: _, cases ->
                  Alcotest.failf "expected 1 recovered case, got %d"
                    (List.length cases)
              | [], _ -> ()))
  in
  ignore (across_domains ~jobs run_one scenarios)

let () =
  Fault.configure_from_env ();
  Alcotest.run "argus-store"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest incremental_matches_full;
          QCheck_alcotest.to_alcotest eviction_never_changes_results;
        ] );
      ( "digest",
        [
          QCheck_alcotest.to_alcotest digest_order_independent;
          Alcotest.test_case "distinct cases digest apart" `Quick
            digest_separates;
          Alcotest.test_case "put idempotent, patch invertible" `Quick
            test_digest_roundtrip;
        ] );
      ( "store",
        [
          Alcotest.test_case "unknown digests and bad edits" `Quick
            test_errors;
          Alcotest.test_case "verdict memoization" `Quick test_memoization;
          QCheck_alcotest.to_alcotest confidence_matches_oracle;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "shared store, 1 domain" `Quick
            (concurrent_differential 1);
          Alcotest.test_case "shared store, 2 domains" `Quick
            (concurrent_differential 2);
          Alcotest.test_case "shared store, 8 domains" `Quick
            (concurrent_differential 8);
        ] );
      ( "durability",
        [
          Alcotest.test_case "recover round-trip" `Quick
            test_recover_roundtrip;
          Alcotest.test_case "snapshot compaction" `Quick
            test_snapshot_compaction;
          Alcotest.test_case "torn tail at every offset" `Quick
            test_torn_tail_every_offset;
          Alcotest.test_case "bit-flip fuzz" `Quick test_bit_flip_fuzz;
          Alcotest.test_case "mid-stream corruption refused end-to-end"
            `Quick test_corrupt_refused_end_to_end;
          Alcotest.test_case "disk fault trips read-only" `Quick
            test_fault_trips_read_only;
          Alcotest.test_case "snapshot fault degrades without loss" `Quick
            test_snapshot_fault_degrades;
          Alcotest.test_case "recovery read fault refuses" `Quick
            test_recover_read_fault;
          Alcotest.test_case "durable differential, 1 domain" `Quick
            (durable_differential 1);
          Alcotest.test_case "durable differential, 8 domains" `Quick
            (durable_differential 8);
          Alcotest.test_case "earlier on-disk format refused by name" `Quick
            test_old_format_refused;
        ] );
    ]
