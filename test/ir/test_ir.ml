(* The fused array-IR checker against its legacy oracles: for every
   structure, Fused.check must render byte-identically to
   Oracle.Wellformed.check + Oracle.Informal.check_structure (same
   findings, same order, same budget ticks), and Fused.check_cae to
   Oracle.Cae.check. *)

module Id = Argus_core.Id
module Diagnostic = Argus_core.Diagnostic
module Evidence = Argus_core.Evidence
module Budget = Argus_rt.Budget
module Node = Argus_gsn.Node
module Structure = Argus_gsn.Structure
module Wellformed = Argus_gsn.Wellformed
module Informal = Argus_fallacy.Informal
module Cae = Argus_cae.Cae
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused

let render ds = Format.asprintf "%a" Diagnostic.pp_report ds
let rulesets = [ Wellformed.Standard; Wellformed.Denney_pai_2013 ]
let fuels = [ 1; 2; 3; 5; 100 ]

(* --- The adversarial case battery --- *)

let battery : (string * Structure.t) list =
  [
    ( "clean",
      Structure.of_nodes
        ~links:
          [
            (Structure.Supported_by, "G1", "S1");
            (Structure.Supported_by, "S1", "G2");
            (Structure.Supported_by, "G2", "Sn1");
            (Structure.In_context_of, "G1", "C1");
          ]
        ~evidence:
          [
            Evidence.make ~id:(Id.of_string "E1") ~kind:Evidence.Test_results
              "tests";
          ]
        [
          Node.goal "G1" "The system is acceptably safe";
          Node.strategy "S1" "Argue over hazards";
          Node.goal "G2" "Hazard H1 is mitigated";
          Node.solution ~evidence:"E1" "Sn1" "Test report";
          Node.context "C1" "Operating context";
        ] );
    ( "dangling",
      Structure.of_nodes
        ~links:
          [
            (Structure.Supported_by, "G1", "Gmissing");
            (Structure.Supported_by, "Gmissing", "Gmissing2");
            (Structure.Supported_by, "Gzz", "G1");
            (Structure.In_context_of, "Cnope", "G1");
          ]
        [ Node.goal "G1" "Claim one holds" ] );
    ( "cycle",
      Structure.of_nodes
        ~links:
          [
            (Structure.Supported_by, "G1", "G2");
            (Structure.Supported_by, "G2", "G3");
            (Structure.Supported_by, "G3", "G1");
          ]
        [
          Node.goal "G1" "A holds";
          Node.goal "G2" "B holds";
          Node.goal "G3" "C holds";
        ] );
    ( "cycle-dangling",
      Structure.of_nodes
        ~links:
          [
            (Structure.Supported_by, "G1", "Gx");
            (Structure.Supported_by, "Gx", "G1");
          ]
        [ Node.goal "G1" "A holds" ] );
    ( "badlinks",
      Structure.of_nodes
        ~links:
          [
            (Structure.Supported_by, "C1", "G1");
            (Structure.Supported_by, "Sn1", "G1");
            (Structure.Supported_by, "S1", "Sn1");
            (Structure.In_context_of, "AG1", "Sn1");
            (Structure.In_context_of, "Sn1", "C1");
            (Structure.In_context_of, "G1", "G2");
          ]
        [
          Node.goal "G1" "All inputs are validated always";
          Node.goal "G2" "Another goal is here";
          Node.strategy "S1" "Argue by cases";
          Node.solution "Sn1" "Evidence doc";
          Node.context "C1" "Some context";
          Node.make ~id:(Id.of_string "AG1")
            ~node_type:(Node.Away_goal (Id.of_string "M1"))
            "Away goal claim text";
        ] );
    ( "statuses",
      Structure.of_nodes
        ~links:[ (Structure.Supported_by, "G1", "G2") ]
        [
          Node.make ~id:(Id.of_string "G1") ~node_type:Node.Goal
            ~status:Node.Undeveloped "Top claim {TBD} is safe";
          Node.make ~id:(Id.of_string "G2") ~node_type:Node.Goal
            ~status:Node.Uninstantiated "Formal proof of Quat4::quat";
          Node.make ~id:(Id.of_string "G3") ~node_type:Node.Goal
            ~status:Node.Undeveloped_uninstantiated "";
          Node.strategy "S1" "   ";
        ] );
    ( "weak-evidence",
      Structure.of_nodes
        ~links:
          [
            (Structure.Supported_by, "G1", "Sn1");
            (Structure.Supported_by, "G2", "Sn1");
            (Structure.Supported_by, "G1", "G2");
          ]
        ~evidence:
          [
            Evidence.make ~id:(Id.of_string "E1") ~kind:Evidence.Test_results
              "a test";
          ]
        [
          Node.goal "G1" "The system never deadlocks";
          Node.goal "G2" "Deadlock is impossible in every mode";
          Node.solution ~evidence:"E1" "Sn1" "Test log";
        ] );
    ( "evidence-refs",
      Structure.of_nodes
        ~links:
          [
            (Structure.Supported_by, "G1", "Sn1");
            (Structure.Supported_by, "G1", "Sn2");
          ]
        [
          Node.goal "G1" "Claims are supported";
          Node.solution ~evidence:"Enope" "Sn1" "Missing evidence";
          Node.solution "Sn2" "No evidence cited";
        ] );
    ( "informal",
      Structure.of_nodes
        ~links:
          [
            (Structure.Supported_by, "G1", "S1");
            (Structure.Supported_by, "S1", "G2");
            (Structure.Supported_by, "S1", "G3");
            (Structure.Supported_by, "G2", "G4");
            (Structure.Supported_by, "G1", "G5");
            (Structure.Supported_by, "G5", "G6");
          ]
        [
          Node.goal "G1" "The system is acceptably safe to operate";
          Node.strategy "S1" "Argue over banks";
          Node.goal "G2" "The river bank erosion control scheme performs well";
          Node.goal "G3" "The bank branch office ledger computation is audited";
          Node.goal "G4" "There is no evidence that failures occur";
          Node.goal "G5" "Intermediate claim stands firmly";
          Node.goal "G6" "The system is acceptably safe to operate";
        ] );
    ( "multi-root",
      Structure.of_nodes [ Node.goal "G1" "A is true"; Node.goal "G2" "B is true" ]
    );
    ( "root-not-goal",
      Structure.of_nodes
        ~links:[ (Structure.Supported_by, "S1", "G1") ]
        [ Node.strategy "S1" "Argue somehow"; Node.goal "G1" "A claim is made" ]
    );
    ( "no-root",
      Structure.of_nodes
        ~links:
          [
            (Structure.Supported_by, "G1", "G2");
            (Structure.Supported_by, "G2", "G1");
          ]
        [ Node.goal "G1" "A holds"; Node.goal "G2" "B holds" ] );
    ("empty", Structure.of_nodes []);
    ( "unreachable",
      Structure.of_nodes
        ~links:
          [
            (Structure.Supported_by, "G1", "G2");
            (Structure.Supported_by, "G3", "G3b");
            (Structure.Supported_by, "G3b", "G3");
            (Structure.In_context_of, "G2", "C1");
          ]
        [
          Node.goal "G1" "Root claim is here";
          Node.goal "G2" "Child claim is here";
          Node.goal "G3" "Island claim floats";
          Node.goal "G3b" "Island partner floats";
          Node.context "C1" "Reachable context";
        ] );
  ]

(* Full parity on one structure: wf and informal for both rulesets,
   budgeted informal with identical step accounting, and CAE.  Returns
   an error description, or None when everything matches. *)
let parity_failure name s =
  let fail = ref None in
  let record fmt = Printf.ksprintf (fun m -> if !fail = None then fail := Some m) fmt in
  List.iter
    (fun ruleset ->
      let legacy_wf = Oracle.Wellformed.check ~ruleset s in
      let fused = Fused.check ~ruleset (Caseir.intern s) in
      if render legacy_wf <> render fused.Fused.wf then
        record "%s: wf mismatch\n--- legacy:\n%s--- fused:\n%s" name
          (render legacy_wf) (render fused.Fused.wf);
      let legacy_inf = Oracle.Informal.check_structure s in
      if render legacy_inf <> render fused.Fused.informal then
        record "%s: informal mismatch\n--- legacy:\n%s--- fused:\n%s" name
          (render legacy_inf) (render fused.Fused.informal);
      List.iter
        (fun fuel ->
          let b1 = Budget.make ~fuel () in
          let b2 = Budget.make ~fuel () in
          let legacy_b = Oracle.Informal.check_structure ~budget:b1 s in
          let fused_b = Fused.check ~ruleset ~budget:b2 (Caseir.intern s) in
          if render legacy_b <> render fused_b.Fused.informal then
            record "%s: budgeted informal mismatch at fuel %d" name fuel;
          if Budget.steps b1 <> Budget.steps b2 then
            record "%s: step mismatch at fuel %d (legacy %d, fused %d)" name
              fuel (Budget.steps b1) (Budget.steps b2))
        fuels)
    rulesets;
  let cae = Cae.of_gsn s in
  let legacy_cae = Oracle.Cae.check cae in
  let fused_cae = Fused.check_cae (Fused.intern_cae cae) in
  if render legacy_cae <> render fused_cae then
    record "%s: CAE mismatch\n--- legacy:\n%s--- fused:\n%s" name
      (render legacy_cae) (render fused_cae);
  let lint = Fused.lint (Caseir.intern s) in
  if render (Oracle.Informal.check_structure s) <> render lint then
    record "%s: Fused.lint mismatch" name;
  !fail

let test_battery () =
  List.iter
    (fun (name, s) ->
      match parity_failure name s with
      | None -> ()
      | Some msg -> Alcotest.fail msg)
    battery

(* ~lints:false must skip the lints entirely — and hence never touch
   the budget, matching a caller that never invoked the legacy lint
   entry point. *)
let test_lints_off_leaves_budget_untouched () =
  let s = List.assoc "informal" battery in
  let b = Budget.make ~fuel:50 () in
  let r = Fused.check ~budget:b ~lints:false (Caseir.intern s) in
  Alcotest.(check int) "no informal findings" 0 (List.length r.Fused.informal);
  Alcotest.(check int) "no budget ticks" 0 (Budget.steps b);
  Alcotest.(check string) "wf unchanged" (render (Oracle.Wellformed.check s))
    (render r.Fused.wf)

let test_ir_counters_advance () =
  let interned = Argus_obs.Counter.make "ir.interned"
  and passes = Argus_obs.Counter.make "ir.fused_passes" in
  let i0 = Argus_obs.Counter.value interned
  and p0 = Argus_obs.Counter.value passes in
  let s = List.assoc "clean" battery in
  let ir = Caseir.intern s in
  ignore (Fused.check ir);
  ignore (Fused.lint ir);
  Alcotest.(check bool) "ir.interned advanced" true
    (Argus_obs.Counter.value interned > i0);
  Alcotest.(check bool) "ir.fused_passes counted both passes" true
    (Argus_obs.Counter.value passes >= p0 + 2)

(* --- Random structures --- *)

(* Texts chosen to tickle every lint: ignorance phrases, shared-word
   equivocation among goal siblings, universal claims, placeholders,
   blanks, non-propositional goal text. *)
let texts =
  [|
    "The system is acceptably safe";
    "There is no evidence that failures occur";
    "The river bank erosion control scheme performs well";
    "The bank branch office ledger computation is audited";
    "All inputs are always validated";
    "Deadlock is impossible in every mode";
    "";
    "Claim {TBD} is pending";
    "Formal proof of Quat4::quat";
    "Argue over hazards";
    "Test report";
    (* Repeated content words: the equivocation rule counts duplicates,
       so these sit on either side of its three-other-words bound. *)
    "The bank bank vault alarm works";
    "The bank ledger ledger is audited daily";
    "Bank vault vault alarm";
  |]

let gen_structure =
  let open QCheck.Gen in
  let node i =
    map2
      (fun (tcode, scode) text ->
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
        Node.make
          ~id:(Id.of_string (Printf.sprintf "N%d" i))
          ~node_type ~status
          texts.(text mod Array.length texts))
      (pair (int_bound 6) (int_bound 4))
      (int_bound (Array.length texts - 1))
  in
  let link n =
    map2
      (fun (kind, dangle) (a, b) ->
        let name j = Printf.sprintf "N%d" j in
        let src = if dangle = 0 then "Nowhere" else name (a mod n) in
        let dst = if dangle = 1 then "Nada" else name (b mod n) in
        ((if kind then Structure.Supported_by else Structure.In_context_of),
         src, dst))
      (pair bool (int_bound 11))
      (pair (int_bound (n - 1)) (int_bound (n - 1)))
  in
  int_range 1 8 >>= fun n ->
  pair
    (flatten_l (List.init n node))
    (list_size (int_range 0 12) (link n))
  |> map (fun (nodes, links) -> Structure.of_nodes ~links nodes)

let print_structure s =
  String.concat "; "
    (List.map
       (fun (n : Node.t) ->
         Printf.sprintf "%s %s %S" (Id.to_string n.Node.id)
           (Node.type_to_string n.Node.node_type)
           n.Node.text)
       (Structure.nodes s))

let fused_matches_legacy_on_random_structures =
  QCheck.Test.make ~name:"fused checker = legacy checkers (random structures)"
    ~count:300
    (QCheck.make ~print:print_structure gen_structure)
    (fun s ->
      match parity_failure "random" s with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* --- the equivocation pair scan against its list-based oracle --- *)

(* Sibling texts built to sit on the pair rule's edges: a small shared
   pool drawn with replacement (repeated and multiply-shared words),
   words unique to one child (one repeated at will), and exact counts
   of three unique words beside one shared word. *)
let pool = [| "bank"; "river"; "ledger"; "vault"; "teller"; "cash" |]

let gen_sibling_text child =
  let open QCheck.Gen in
  let unique k = Printf.sprintf "q%dz%d" child k in
  let uniques n = List.init n unique in
  let shared = oneofa pool in
  let body =
    int_bound 3 >>= function
    | 0 -> list_size (int_range 0 7) shared
    | 1 ->
        map2
          (fun w (n, dup) ->
            let us = uniques n in
            (w :: us) @ if dup && n > 0 then [ unique 0 ] else [])
          shared
          (pair (int_range 2 5) bool)
    | 2 ->
        map2
          (fun w twice -> (if twice then [ w; w ] else [ w ]) @ uniques 3)
          shared bool
    | _ ->
        map2
          (fun w extra -> (w :: uniques 2) @ [ unique 1 ] @ extra)
          shared
          (list_size (int_bound 2) shared)
  in
  body >>= shuffle_l >|= String.concat " "

(* One parent over 2-60 children, mostly goal-like; a few strategies,
   solutions and a dangling target ride along to exercise the
   goal-like filter. *)
let gen_sibling_case =
  let open QCheck.Gen in
  int_range 2 60 >>= fun n ->
  let child i =
    map2
      (fun kind text ->
        let id = Id.of_string (Printf.sprintf "C%d" i) in
        let node_type =
          match kind with
          | 0 -> Node.Strategy
          | 1 -> Node.Solution
          | 2 -> Node.Away_goal (Id.of_string "M1")
          | _ -> Node.Goal
        in
        Node.make ~id ~node_type text)
      (int_bound 9) (gen_sibling_text i)
  in
  map2
    (fun children dangle ->
      let links =
        List.map
          (fun c ->
            (Structure.Supported_by, "P", Id.to_string c.Node.id))
          children
        @ if dangle then [ (Structure.Supported_by, "P", "Cmissing") ] else []
      in
      Structure.of_nodes ~links (Node.goal "P" "Parent claim holds" :: children))
    (flatten_l (List.init n child))
    bool

let pair_scan_matches_oracle =
  QCheck.Test.make
    ~name:"node lints = list-based pair scan (sibling fan-outs)" ~count:300
    (QCheck.make ~print:print_structure gen_sibling_case)
    (fun s ->
      let ir = Caseir.intern s in
      let collect f =
        let out = ref [] in
        f (fun d -> out := d :: !out);
        render (List.rev !out)
      in
      let bad = ref None in
      for i = ir.Caseir.n_nodes - 1 downto 0 do
        let want = collect (Oracle.Informal.node_lints ir i) in
        let got = render (Fused.node_lint_findings ir i) in
        if want <> got then
          bad :=
            Some
              (Printf.sprintf "node %s\n--- oracle:\n%s--- fused:\n%s"
                 (Id.to_string ir.Caseir.ids.(i)) want got)
      done;
      match !bad with None -> true | Some m -> QCheck.Test.fail_report m)

(* --- incremental re-interning: set_node = full re-intern --- *)

(* Replace one node's text in place; checking the patched IR must be
   byte-identical to checking a fresh intern of the edited
   structure. *)
let set_node_parity =
  QCheck.Test.make ~name:"set_node = full re-intern (random text edits)"
    ~count:300
    (QCheck.make
       ~print:(fun (s, _, _) -> print_structure s)
       QCheck.Gen.(
         gen_structure >>= fun s ->
         let n = List.length (Structure.nodes s) in
         pair (int_bound (max 0 (n - 1))) (int_bound (Array.length texts - 1))
         >>= fun (pick, text) -> return (s, pick, text)))
    (fun (s, pick, text) ->
      let ir = Caseir.intern s in
      let nodes = Structure.nodes s in
      let node = List.nth nodes (pick mod List.length nodes) in
      let n' =
        Node.make ~id:node.Node.id ~node_type:node.Node.node_type
          ~status:node.Node.status ?formal:node.Node.formal
          ~annotations:node.Node.annotations ?evidence:node.Node.evidence
          texts.(text)
      in
      let s' = Structure.add_node n' s in
      let i =
        match Caseir.entity_index ir node.Node.id with
        | Some i -> i
        | None -> QCheck.Test.fail_report "node lost its entity index"
      in
      let patched = Caseir.set_node ir s' i n' in
      let a = Fused.check ~lints:true patched in
      let b = Fused.check ~lints:true (Caseir.intern s') in
      let show r =
        render r.Fused.wf ^ "\x00" ^ render r.Fused.informal
      in
      if show a <> show b then
        QCheck.Test.fail_report
          (Printf.sprintf "patched IR drifted\n-- patched --\n%s\n-- fresh --\n%s"
             (show a) (show b))
      else true)

(* --- the compiled modular checker --- *)

module Modular = Argus_gsn.Modular

let gen_collection =
  let open QCheck.Gen in
  int_range 1 4 >>= fun m ->
  flatten_l
    (List.init m (fun k ->
         gen_structure >>= fun s -> return (Id.of_string (Printf.sprintf "M%d" k), s)))
  |> map
       (List.fold_left
          (fun acc (name, s) -> Modular.add_module ~name s acc)
          Modular.empty)

(* The single-intern modular pass against its oracles, for both
   rulesets, lints on and off, unlimited and fuel-limited: its
   well-formedness half must match the legacy per-module checker
   under the same ruleset, and its lint half the per-module lints
   concatenated in module order — spending a shared budget the same
   way. *)
let check_modular_matches_legacy =
  QCheck.Test.make
    ~name:"Fused.check_modular = Modular.check (random collections)"
    ~count:200
    (QCheck.make
       ~print:(fun c ->
         String.concat ", " (List.map Id.to_string (Modular.module_names c)))
       gen_collection)
    (fun c ->
      let drift what a b =
        QCheck.Test.fail_report
          (Printf.sprintf "modular %s drift\n-- fused --\n%s\n-- oracle --\n%s"
             what a b)
      in
      let legacy = render (Oracle.Modular.check c) in
      let standard = render (Fused.check_modular ~lints:false c).Fused.wf in
      if standard <> legacy then drift "default" standard legacy
      else
        List.for_all
          (fun ruleset ->
            List.for_all
              (fun (lints, fuel) ->
                let budget () =
                  Option.map (fun fuel -> Budget.make ~fuel ()) fuel
                in
                let b1 = budget () and b2 = budget () in
                let r = Fused.check_modular ~ruleset ?budget:b1 ~lints c in
                let wf =
                  render (Modular.check_with ~wf:(Oracle.Wellformed.check ~ruleset) c)
                in
                let informal =
                  if not lints then ""
                  else
                    render
                      (List.concat_map
                         (fun name ->
                           match Modular.find name c with
                           | Some s -> Fused.lint ?budget:b2 (Caseir.intern s)
                           | None -> [])
                         (Modular.module_names c))
                in
                let steps b =
                  Option.fold ~none:"-"
                    ~some:(fun b -> string_of_int (Budget.steps b))
                    b
                in
                if render r.Fused.wf <> wf then
                  drift "wf" (render r.Fused.wf) wf
                else if lints && render r.Fused.informal <> informal then
                  drift "lint" (render r.Fused.informal) informal
                else if (not lints) && r.Fused.informal <> [] then
                  drift "lints-off" (render r.Fused.informal) ""
                else if steps b1 <> steps b2 then
                  drift "budget steps" (steps b1) (steps b2)
                else true)
              [ (false, None); (true, None); (false, Some 3); (true, Some 3) ])
          rulesets)

(* --- One-pass text derivation against the list-based oracle --- *)

module Text_oracle = Oracle.Text
module Textutil = Argus_core.Textutil
module Greenwell = Argus_fallacy.Greenwell
module Prop = Argus_logic.Prop
module Dsl = Argus_dsl.Dsl

let node_types =
  let m = Id.of_string "M" in
  [
    Node.Goal; Node.Strategy; Node.Solution; Node.Context; Node.Assumption;
    Node.Justification; Node.Away_goal m; Node.Module_ref m; Node.Contract m;
  ]

(* Every production predicate and [Caseir.derive] (at every node type)
   that disagrees with its oracle on [text], by name. *)
let text_mismatches text =
  let pred name prod orac = if prod text = orac text then [] else [ name ] in
  List.concat
    [
      pred "words" Textutil.words Text_oracle.words;
      pred "content_words" Textutil.content_words Text_oracle.content_words;
      pred "contains_symbolic_notation" Textutil.contains_symbolic_notation
        Text_oracle.contains_symbolic_notation;
      pred "argues_from_ignorance" Informal.argues_from_ignorance
        Text_oracle.argues_from_ignorance;
      pred "claims_universally" Wellformed.claims_universally
        Text_oracle.claims_universally;
      pred "looks_propositional" Node.looks_propositional
        Text_oracle.looks_propositional;
    ]
  @ List.filter_map
      (fun node_type ->
        let n = Node.make ~id:(Id.of_string "N1") ~node_type text in
        if Caseir.derive n = Text_oracle.derive n then None
        else Some ("derive/" ^ Node.type_to_string node_type))
      node_types

let check_texts texts =
  List.iter
    (fun text ->
      match text_mismatches text with
      | [] -> ()
      | bad ->
          Alcotest.failf "%S: production differs from the oracle in %s" text
            (String.concat ", " bad))
    texts

let symbols =
  [
    "=>"; "->"; "<->"; "|-"; ":-"; "/\\"; "\\/"; "&"; "wcet("; "f_1(";
    "\xc2\xac"; "\xe2\x88\xa7"; "\xe2\x88\xa8"; "\xe2\x86\x92";
    "\xe2\x87\x92"; "\xe2\x88\x80"; "\xe2\x88\x83";
  ]

(* The scanners' boundary cases, checked on every run and seeded into
   the random generator. *)
let edge_texts =
  [
    "";
    "(";
    "(x) holds";
    "x(";
    "_(";
    "the system is safe =>";
    "a ->";
    "p :-";
    "p \\/";
    "p /\\";
    "q |-";
    "ok &";
    "there is no counterexample";
    "There Is NO COUNTEREXAMPLE";
    "\xe2\x88";
    "ends with a truncated symbol \xe2\x88";
    "\xe2";
    "\xc2";
    "\xe2\x88\xa7";
    "Banks";
    "class";
    "does";
    "Banks class does";
    "BANKS CLASS DOES";
    "All";
    "ANY";
    "is";
    "- > = > | -";
    "<-";
    "no evidence tha";
  ]

(* Every string in the Greenwell corpus: system, description, and each
   premise and conclusion rendered as formula text. *)
let greenwell_texts =
  List.concat_map
    (fun i ->
      let a = i.Greenwell.argument in
      i.Greenwell.system :: i.Greenwell.description
      :: Prop.to_string a.Argus_fallacy.Formal.conclusion
      :: List.map Prop.to_string a.Argus_fallacy.Formal.premises)
    Greenwell.corpus

let read_file path = In_channel.with_open_bin path In_channel.input_all

let files_in dir suffix =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f suffix)
  |> List.sort compare
  |> List.map (Filename.concat dir)

(* The string literals of an OCaml source — ["..."] with escapes, and
   [{|...|}] — which hold every node text the examples build. *)
let string_literals src =
  let n = String.length src in
  let out = ref [] in
  let rec go i =
    if i >= n then ()
    else if src.[i] = '"' then begin
      let b = Buffer.create 32 in
      let rec lit j =
        if j >= n then j
        else
          match src.[j] with
          | '"' -> j + 1
          | '\\' when j + 1 < n ->
              Buffer.add_char b '\\';
              Buffer.add_char b src.[j + 1];
              lit (j + 2)
          | c ->
              Buffer.add_char b c;
              lit (j + 1)
      in
      let j = lit (i + 1) in
      let raw = Buffer.contents b in
      out := (try Scanf.unescaped raw with _ -> raw) :: !out;
      go j
    end
    else if i + 1 < n && src.[i] = '{' && src.[i + 1] = '|' then begin
      let stop =
        let rec find j =
          if j + 1 >= n then n
          else if src.[j] = '|' && src.[j + 1] = '}' then j
          else find (j + 1)
        in
        find (i + 2)
      in
      out := String.sub src (i + 2) (stop - i - 2) :: !out;
      go (stop + 2)
    end
    else go (i + 1)
  in
  go 0;
  List.rev !out

(* Node texts of every case a DSL source holds (none if it does not
   parse). *)
let dsl_node_texts src =
  match Dsl.parse_collection src with
  | Ok cases ->
      List.concat_map
        (fun c -> List.map (fun n -> n.Node.text) (Structure.nodes c.Dsl.structure))
        cases
  | Error _ -> []

let example_texts () =
  List.concat_map
    (fun f ->
      let lits = string_literals (read_file f) in
      lits @ List.concat_map dsl_node_texts lits)
    (files_in "../../examples" ".ml")

let fixture_texts () =
  List.concat_map
    (fun f -> dsl_node_texts (read_file f))
    (files_in "../cli" ".arg")

let test_text_edges () = check_texts edge_texts
let test_text_greenwell () = check_texts greenwell_texts

let test_text_examples () =
  let ex = example_texts () and fx = fixture_texts () in
  if List.length ex < 50 || List.length fx < 20 then
    Alcotest.failf "too few texts found (%d in examples, %d in fixtures)"
      (List.length ex) (List.length fx);
  check_texts ex;
  check_texts fx

(* Marker, verb and stop words, plural-strip cases, and words from the
   ignorance phrases. *)
let vocabulary =
  [
    "all"; "always"; "never"; "every"; "any"; "is"; "are"; "holds"; "shall";
    "meets"; "does"; "do"; "safe"; "correct"; "inhibited"; "the"; "a"; "of";
    "no"; "not"; "has"; "have"; "ha"; "doe"; "been"; "Banks"; "class";
    "glass"; "bus"; "was"; "its"; "evidence"; "that"; "observed"; "shown";
    "counterexample"; "absence"; "report"; "system"; "hazards"; "x1";
  ]

(* Upper-cases the bytes of [s] whose position picks a set bit of
   [mask]. *)
let flip_case mask s =
  String.mapi
    (fun i c ->
      if (mask lsr (i mod 30)) land 1 = 1 then Char.uppercase_ascii c else c)
    s

let gen_text =
  let open QCheck.Gen in
  let word =
    map2 flip_case int
      (frequency
         [
           (4, oneofl vocabulary);
           (2, oneofl symbols);
           (1, map (String.make 1) (oneofl [ '\xe2'; '\xc2'; '\x88'; '(' ]));
           (1, oneofl [ "\xe2\x88"; "\xe2\x86"; "\xe2\x87" ]);
           (2, string_size ~gen:printable (int_range 1 6));
         ])
  in
  let sep = oneofl [ " "; " "; " "; ""; ", "; "."; "-"; "_"; "\n"; "(" ] in
  let mixed =
    map
      (fun parts -> String.concat "" (List.concat_map (fun (w, s) -> [ w; s ]) parts))
      (list_size (int_range 0 14) (pair word sep))
  in
  (* An ignorance phrase in random case, spliced in at a random offset
     (the start and the very end included). *)
  let spliced =
    map3
      (fun base phrase (at, mask) ->
        let at = at mod (String.length base + 1) in
        String.sub base 0 at ^ flip_case mask phrase
        ^ String.sub base at (String.length base - at))
      mixed
      (oneofl Text_oracle.ignorance_phrases)
      (pair nat int)
  in
  frequency
    [
      (1, oneofl edge_texts);
      (6, mixed);
      (3, spliced);
      (2, string_size ~gen:char (int_range 0 40));
    ]

let derive_matches_oracle =
  QCheck.Test.make ~name:"derive and predicates = list-based oracle (random texts)"
    ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_text)
    (fun text ->
      match text_mismatches text with
      | [] -> true
      | bad -> QCheck.Test.fail_reportf "differs in %s" (String.concat ", " bad))

let () =
  Alcotest.run "argus-ir"
    [
      ( "parity",
        [
          Alcotest.test_case "adversarial battery" `Quick test_battery;
          Alcotest.test_case "lints off leaves budget untouched" `Quick
            test_lints_off_leaves_budget_untouched;
          Alcotest.test_case "counters advance" `Quick test_ir_counters_advance;
          QCheck_alcotest.to_alcotest fused_matches_legacy_on_random_structures;
          QCheck_alcotest.to_alcotest set_node_parity;
          QCheck_alcotest.to_alcotest check_modular_matches_legacy;
          QCheck_alcotest.to_alcotest pair_scan_matches_oracle;
        ] );
      ( "text",
        [
          Alcotest.test_case "edge texts = oracle" `Quick test_text_edges;
          Alcotest.test_case "greenwell corpus = oracle" `Quick
            test_text_greenwell;
          Alcotest.test_case "examples and fixtures = oracle" `Quick
            test_text_examples;
          QCheck_alcotest.to_alcotest derive_matches_oracle;
        ] );
    ]
