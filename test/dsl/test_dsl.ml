open Argus_dsl.Dsl
module Id = Argus_core.Id
module Diagnostic = Argus_core.Diagnostic
module Evidence = Argus_core.Evidence
module Structure = Argus_gsn.Structure
module Node = Argus_gsn.Node
module Wellformed = Argus_gsn.Wellformed
module Metadata = Argus_gsn.Metadata

let sample_text =
  {|
// A small but complete case exercising every construct.
case "Braking controller safety" {
  enum severity { catastrophic hazardous major minor }
  enum likelihood { frequent probable remote }
  attr hazard (string, severity, likelihood)
  attr sil (nat)

  evidence E1 analysis "Worst-case timing analysis"
    source "report T-42" strength statistical
  evidence E2 test-results "HIL test campaign"

  goal G1 "The controller is acceptably safe" {
    formal "safe_ctrl"
    in-context-of C1
    supported-by S1
  }
  strategy S1 "Argue over each identified hazard" {
    supported-by G2, G3
    in-context-of J1
  }
  goal G2 "Hazard H1 is mitigated" {
    meta "hazard \"H1\" catastrophic remote"
    meta "sil 4"
    supported-by Sn1
  }
  goal G3 "Hazard H2 is mitigated" { undeveloped }
  solution Sn1 "Timing analysis results" { evidence E1 }
  context C1 "Motorway driving only"
  justification J1 "Hazard list reviewed by the safety board"
}
|}

let sample = parse_exn sample_text

let test_parse_sample () =
  Alcotest.(check string) "title" "Braking controller safety" sample.title;
  Alcotest.(check int) "nodes" 7 (Structure.size sample.structure);
  Alcotest.(check int) "evidence" 2
    (List.length (Structure.evidence sample.structure));
  Alcotest.(check int) "enums" 2
    (List.length sample.ontology.Metadata.enums);
  Alcotest.(check int) "attrs" 2
    (List.length sample.ontology.Metadata.attributes);
  let g1 = Structure.find_exn (Id.of_string "G1") sample.structure in
  Alcotest.(check bool) "formal parsed" true (g1.Node.formal <> None);
  let g2 = Structure.find_exn (Id.of_string "G2") sample.structure in
  Alcotest.(check int) "two annotations" 2 (List.length g2.Node.annotations);
  Alcotest.(check (list string))
    "S1 children" [ "G2"; "G3" ]
    (List.map Id.to_string
       (Structure.children Structure.Supported_by (Id.of_string "S1")
          sample.structure))

let test_sample_well_formed () =
  Alcotest.(check (list string)) "well-formed" []
    (List.map
       (fun d -> d.Diagnostic.code)
       (Oracle.Wellformed.check sample.structure))

let test_metadata_valid () =
  Alcotest.(check (list string)) "metadata valid" []
    (List.map (fun d -> d.Diagnostic.code) (validate_metadata sample))

let test_roundtrip () =
  let printed = print sample in
  let reparsed = parse_exn printed in
  Alcotest.(check string) "title" sample.title reparsed.title;
  Alcotest.(check bool) "structure equal" true
    (Structure.equal sample.structure reparsed.structure);
  Alcotest.(check bool) "ontology equal" true
    (sample.ontology = reparsed.ontology)

let test_away_goal_syntax () =
  let c =
    parse_exn
      {|case "modular" {
          away-goal(PowertrainModule) AG1 "Powertrain is safe" { undeveloped }
          module(PowertrainModule) M1 "Powertrain safety case"
          contract(PowertrainModule) K1 "Interface contract"
        }|}
  in
  let ag = Structure.find_exn (Id.of_string "AG1") c.structure in
  (match ag.Node.node_type with
  | Node.Away_goal m ->
      Alcotest.(check string) "module ref" "PowertrainModule" (Id.to_string m)
  | _ -> Alcotest.fail "expected away goal");
  let printed = print c in
  let reparsed = parse_exn printed in
  Alcotest.(check bool) "round-trip" true
    (Structure.equal c.structure reparsed.structure)

let expect_error code text =
  match parse text with
  | Ok _ -> Alcotest.failf "expected %s for %s" code text
  | Error ds ->
      let cs = List.map (fun d -> d.Diagnostic.code) ds in
      if not (List.mem code cs) then
        Alcotest.failf "expected %s, got [%s]" code (String.concat "; " cs)

let test_syntax_errors () =
  List.iter (expect_error "dsl/syntax")
    [
      "";
      "case {}";
      {|case "x"|};
      {|case "x" { goal }|};
      {|case "x" { goal G1 }|};
      {|case "x" { goal G1 "t" { supported-by } }|};
      {|case "x" { widget W1 "t" }|};
      {|case "x" { goal G1 "t" } trailing|};
      {|case "x" { attr a (bogus) }|};
    ]

(* Hardening: pathological input must produce a diagnostic, never a
   stack overflow or unbounded allocation. *)
let test_pathological_input () =
  let deep = 100_000 in
  (* 100k-deep nested braces after a valid case header. *)
  expect_error "dsl/syntax"
    ({|case "x" { goal G1 "t" |} ^ String.make deep '{');
  (* 100k-deep parenthesised formula: must be rejected before it
     reaches the recursive-descent formula parser. *)
  expect_error "dsl/bad-formula"
    (Printf.sprintf {|case "x" { goal G1 "t is safe" { formal "%sa%s" } }|}
       (String.make deep '(') (String.make deep ')'));
  (* Oversized input: a multi-MB file is refused up front. *)
  expect_error "dsl/syntax"
    ({|case "x" { goal G1 "t" { undeveloped } } // |}
    ^ String.make (9 * 1024 * 1024) 'x')

let test_semantic_errors () =
  expect_error "dsl/duplicate-id"
    {|case "x" { goal G1 "a is safe" { undeveloped } goal G1 "b is safe" { undeveloped } }|};
  expect_error "dsl/bad-formula"
    {|case "x" { goal G1 "t is safe" { undeveloped formal "a &" } }|};
  expect_error "dsl/bad-annotation"
    {|case "x" { goal G1 "t is safe" { undeveloped meta "" } }|};
  expect_error "dsl/bad-evidence-kind"
    {|case "x" { evidence E1 vibes "description" }|};
  expect_error "dsl/bad-strength"
    {|case "x" { evidence E1 analysis "d" strength maybe }|};
  expect_error "dsl/duplicate-enum"
    {|case "x" { enum a { b } enum a { c } }|}

let test_error_location () =
  match parse ~filename:"case.arg" "case \"x\" {\n  bogus\n}" with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error [ d ] -> (
      match d.Diagnostic.loc with
      | Some loc ->
          Alcotest.(check int) "line 2" 2 loc.Argus_core.Loc.start.Argus_core.Loc.line
      | None -> Alcotest.fail "expected a location")
  | Error _ -> Alcotest.fail "expected exactly one diagnostic"

let test_comments_and_multiline_strings () =
  let c =
    parse_exn
      "case \"x\" { // comment\n goal G1 \"spans\nlines and is safe\" { undeveloped } }"
  in
  let g = Structure.find_exn (Id.of_string "G1") c.structure in
  Alcotest.(check bool) "newline preserved" true
    (String.contains g.Node.text '\n')

(* --- Multi-module collections --- *)

let modular_text =
  {|
case Powertrain "Powertrain safety" {
  evidence PE1 analysis "Torque path analysis"
  goal PG1 "The powertrain is acceptably safe" { supported-by PSn1 }
  solution PSn1 "Analysis results" { evidence PE1 }
}

case Vehicle "Vehicle safety" {
  evidence VE1 review "Integration review"
  goal VG1 "The vehicle is acceptably safe" { supported-by S1 }
  strategy S1 "Argue over subsystems" { supported-by PG1, VG2 }
  away-goal(Powertrain) PG1 "The powertrain is acceptably safe"
  goal VG2 "The body is acceptably safe" { supported-by VSn1 }
  solution VSn1 "Review results" { evidence VE1 }
}
|}

let test_parse_collection () =
  match parse_collection ~filename:"modular.arg" modular_text with
  | Error ds -> Alcotest.failf "%s" (Format.asprintf "%a" Diagnostic.pp_report ds)
  | Ok cases ->
      Alcotest.(check int) "two cases" 2 (List.length cases);
      let names =
        List.filter_map
          (fun c -> Option.map Id.to_string c.module_name)
          cases
      in
      Alcotest.(check (list string)) "module names" [ "Powertrain"; "Vehicle" ]
        names

let test_collection_to_modular () =
  let cases = Result.get_ok (parse_collection modular_text) in
  match to_modular cases with
  | Error ds -> Alcotest.failf "%s" (Format.asprintf "%a" Diagnostic.pp_report ds)
  | Ok collection ->
      Alcotest.(check (list string))
        "modules" [ "Powertrain"; "Vehicle" ]
        (List.map Id.to_string (Argus_gsn.Modular.module_names collection));
      Alcotest.(check (list string)) "clean" []
        (List.map
           (fun d -> d.Diagnostic.code)
           (Oracle.Modular.check collection))

let test_collection_detects_bad_away_goal () =
  let broken =
    {|case A "a" {
        goal GA "A is acceptably safe" { supported-by GX }
        away-goal(Missing) GX "cited from nowhere"
      }|}
  in
  let cases = Result.get_ok (parse_collection broken) in
  (* A single anonymous... this one is named?  No name: single case ->
     module Main. *)
  let collection = Result.get_ok (to_modular cases) in
  Alcotest.(check bool) "unknown module reported" true
    (List.mem "modular/unknown-module"
       (List.map
          (fun d -> d.Diagnostic.code)
          (Oracle.Modular.check collection)))

let test_unnamed_module_rejected () =
  let cases =
    Result.get_ok
      (parse_collection
         {|case "first" { goal G1 "g is safe" { undeveloped } }
           case Second "second" { goal G2 "h is safe" { undeveloped } }|})
  in
  match to_modular cases with
  | Error ds ->
      Alcotest.(check bool) "unnamed flagged" true
        (List.exists (fun d -> d.Diagnostic.code = "dsl/unnamed-module") ds)
  | Ok _ -> Alcotest.fail "expected an error"

let test_duplicate_module_rejected () =
  let cases =
    Result.get_ok
      (parse_collection
         {|case M "first" { goal G1 "g is safe" { undeveloped } }
           case M "second" { goal G2 "h is safe" { undeveloped } }|})
  in
  match to_modular cases with
  | Error ds ->
      Alcotest.(check bool) "duplicate flagged" true
        (List.exists (fun d -> d.Diagnostic.code = "dsl/duplicate-module") ds)
  | Ok _ -> Alcotest.fail "expected an error"

let test_module_name_roundtrip () =
  let cases = Result.get_ok (parse_collection modular_text) in
  let first = List.hd cases in
  let printed = print first in
  let reparsed = parse_exn printed in
  Alcotest.(check bool) "module name preserved" true
    (reparsed.module_name = first.module_name);
  Alcotest.(check bool) "structure preserved" true
    (Structure.equal reparsed.structure first.structure)

(* --- Round-trip property over generated cases --- *)

let gen_case =
  let open QCheck.Gen in
  let* n_goals = int_range 1 6 in
  let* with_formal = list_size (return n_goals) bool in
  let* statuses =
    list_size (return n_goals)
      (oneofl [ Node.Developed; Node.Undeveloped; Node.Uninstantiated ])
  in
  let goals =
    List.mapi
      (fun i (formal, status) ->
        let id = Printf.sprintf "G%d" i in
        let base =
          Node.make ~id:(Id.of_string id) ~node_type:Node.Goal ~status
            ?formal:
              (if formal then Some (Argus_logic.Prop.of_string_exn "a -> b")
               else None)
            (Printf.sprintf "Claim %d is acceptably safe" i)
        in
        base)
      (List.combine with_formal statuses)
  in
  (* Chain them: G0 <- G1 <- ... so the structure is connected. *)
  let links =
    List.init (n_goals - 1) (fun i ->
        (Structure.Supported_by,
         Printf.sprintf "G%d" i,
         Printf.sprintf "G%d" (i + 1)))
  in
  let structure =
    Structure.of_nodes
      ~links:
        (List.map
           (fun (k, a, b) -> (k, a, b))
           links)
      goals
  in
  return
    {
      module_name = None;
      title = "generated";
      ontology = Metadata.ontology [];
      structure;
    }

let roundtrip_property =
  QCheck.Test.make ~name:"print/parse round-trip" ~count:200
    (QCheck.make ~print:print gen_case) (fun c ->
      match parse (print c) with
      | Ok c' ->
          c.title = c'.title
          && Structure.equal c.structure c'.structure
          && c.ontology = c'.ontology
      | Error _ -> false)

(* --- Linear case assembly against the old fold --- *)

module Assembly = Oracle.Assembly

let node_kinds =
  [
    (Node.Goal, "goal"); (Node.Strategy, "strategy");
    (Node.Solution, "solution"); (Node.Context, "context");
    (Node.Assumption, "assumption"); (Node.Justification, "justification");
  ]

(* Random declaration lists with repeated node ids, repeated and
   dangling link targets, and evidence (also with repeated ids)
   interleaved with the nodes. *)
let gen_items =
  let open QCheck.Gen in
  let node_id = map (Printf.sprintf "G%d") (int_range 1 6) in
  let target =
    oneof [ node_id; map (Printf.sprintf "X%d") (int_range 1 2) ]
  in
  let node =
    map3
      (fun (id, ty) (text, supported) contexts ->
        let node_type, _ = List.nth node_kinds ty in
        Assembly.Node
          ( Node.make ~id:(Id.of_string id) ~node_type text,
            List.map Id.of_string supported,
            List.map Id.of_string contexts ))
      (pair node_id (int_range 0 (List.length node_kinds - 1)))
      (pair
         (oneofl [ "The system is safe"; "Argue over hazards"; "Tests" ])
         (list_size (int_range 0 4) target))
      (list_size (int_range 0 2) target)
  in
  let evidence =
    map3
      (fun id kind text ->
        Assembly.Evidence (Evidence.make ~id:(Id.of_string id) ~kind text))
      (map (Printf.sprintf "E%d") (int_range 1 3))
      (oneofl [ Evidence.Analysis; Evidence.Test_results ])
      (oneofl [ "Timing analysis"; "HIL campaign" ])
  in
  let* items = list_size (int_range 0 25) (frequency [ (4, node); (1, evidence) ]) in
  (* Half the cases renumber their nodes G1, G2, ... so they parse
     clean and the assembled structure itself is compared. *)
  let renumber items =
    List.rev
      (snd
         (List.fold_left
            (fun (k, acc) -> function
              | Assembly.Node (n, sup, ctx) ->
                  let id = Id.of_string (Printf.sprintf "G%d" k) in
                  (k + 1, Assembly.Node ({ n with Node.id }, sup, ctx) :: acc)
              | e -> (k, e :: acc))
            (1, []) items))
  in
  map (fun unique -> if unique then renumber items else items) bool

(* One declaration per line, from line 2. *)
let render_items items =
  let ids l = String.concat ", " (List.map Id.to_string l) in
  let line = function
    | Assembly.Evidence e ->
        Printf.sprintf "  evidence %s %s %S" (Id.to_string e.Evidence.id)
          (Evidence.kind_to_string e.Evidence.kind)
          e.Evidence.description
    | Assembly.Node (n, supported, contexts) ->
        let clause kw = function [] -> "" | l -> Printf.sprintf " %s %s" kw (ids l) in
        let body =
          match (supported, contexts) with
          | [], [] -> ""
          | _ ->
              Printf.sprintf " {%s%s }"
                (clause "supported-by" supported)
                (clause "in-context-of" contexts)
        in
        Printf.sprintf "  %s %s %S%s"
          (List.assoc n.Node.node_type node_kinds)
          (Id.to_string n.Node.id) n.Node.text body
  in
  String.concat "\n"
    (("case \"generated\" {" :: List.map line items) @ [ "}" ])

let assembly_matches_fold =
  QCheck.Test.make ~name:"linear assembly = add_node/connect fold" ~count:500
    (QCheck.make ~print:render_items gen_items)
    (fun items ->
      let expected, dups = Assembly.assemble items in
      match (parse (render_items items), dups) with
      | Ok c, [] ->
          let s = c.structure in
          List.equal Node.equal (Structure.nodes s) (Structure.nodes expected)
          && Structure.links s = Structure.links expected
          && List.equal Evidence.equal (Structure.evidence s)
               (Structure.evidence expected)
      | Error ds, _ :: _ ->
          (* Each skipped redeclaration is reported at its own line. *)
          let lines =
            List.concat
              (List.mapi
                 (fun i -> function
                   | Assembly.Node (n, _, _) -> [ (n.Node.id, i + 2) ]
                   | Assembly.Evidence _ -> [])
                 items)
          in
          let seen = Hashtbl.create 8 in
          let expected_diags =
            List.filter_map
              (fun (id, line) ->
                if Hashtbl.mem seen id then
                  Some
                    ( "dsl/duplicate-id",
                      [ id ],
                      Printf.sprintf "node %s declared twice" (Id.to_string id),
                      line )
                else (
                  Hashtbl.add seen id ();
                  None))
              lines
          in
          let got =
            List.map
              (fun d ->
                ( d.Diagnostic.code,
                  d.Diagnostic.subjects,
                  d.Diagnostic.message,
                  match d.Diagnostic.loc with
                  | Some l -> l.Argus_core.Loc.start.Argus_core.Loc.line
                  | None -> 0 ))
              ds
          in
          List.length expected_diags = List.length dups
          && List.sort compare got = List.sort compare expected_diags
      | _ -> false)

(* Allocation is deterministic, so it pins the assembly's complexity
   without timing noise: minor words per node must stay flat from 1000
   to 8000 nodes (the old append-and-scan fold grew ~8x). *)
let big_case n =
  let b = Buffer.create (n * 96) in
  Buffer.add_string b "case \"big\" {\n  context C1 \"Operating envelope\"\n";
  for i = 0 to n - 1 do
    Printf.bprintf b
      "  goal G%d \"Claim %d is acceptably safe\" { supported-by G%d, G%d \
       in-context-of C1 }\n"
      i i ((2 * i) + 1) ((2 * i) + 2)
  done;
  Buffer.add_string b "}\n";
  Buffer.contents b

let words_per_node n =
  let text = big_case n in
  Gc.full_major ();
  let before = Gc.minor_words () in
  (match parse_collection text with
  | Ok [ c ] -> assert (Structure.size c.structure = n + 1)
  | _ -> Alcotest.fail "big case did not parse");
  (Gc.minor_words () -. before) /. float n

let test_parse_linear_alloc () =
  let small = words_per_node 1000 and large = words_per_node 8000 in
  if large > 1.5 *. small then
    Alcotest.failf
      "parse allocation grows with case size: %.0f words/node at 1000 \
       nodes, %.0f at 8000"
      small large

let () =
  Alcotest.run "argus-dsl"
    [
      ( "parsing",
        [
          Alcotest.test_case "sample case" `Quick test_parse_sample;
          Alcotest.test_case "sample well-formed" `Quick test_sample_well_formed;
          Alcotest.test_case "metadata valid" `Quick test_metadata_valid;
          Alcotest.test_case "away goals and modules" `Quick
            test_away_goal_syntax;
          Alcotest.test_case "comments and multiline strings" `Quick
            test_comments_and_multiline_strings;
        ] );
      ( "errors",
        [
          Alcotest.test_case "syntax errors" `Quick test_syntax_errors;
          Alcotest.test_case "pathological input" `Quick
            test_pathological_input;
          Alcotest.test_case "semantic errors" `Quick test_semantic_errors;
          Alcotest.test_case "error location" `Quick test_error_location;
        ] );
      ( "modular",
        [
          Alcotest.test_case "parse collection" `Quick test_parse_collection;
          Alcotest.test_case "to modular" `Quick test_collection_to_modular;
          Alcotest.test_case "bad away goal" `Quick
            test_collection_detects_bad_away_goal;
          Alcotest.test_case "unnamed module" `Quick test_unnamed_module_rejected;
          Alcotest.test_case "duplicate module" `Quick
            test_duplicate_module_rejected;
          Alcotest.test_case "module name round-trip" `Quick
            test_module_name_roundtrip;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "sample round-trip" `Quick test_roundtrip;
          QCheck_alcotest.to_alcotest roundtrip_property;
        ] );
      ( "assembly",
        [
          QCheck_alcotest.to_alcotest assembly_matches_fold;
          Alcotest.test_case "parse allocation linear in nodes" `Quick
            test_parse_linear_alloc;
        ] );
    ]
