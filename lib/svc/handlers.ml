module Json = Argus_core.Json
module Diagnostic = Argus_core.Diagnostic
module Budget = Argus_rt.Budget
module Dsl = Argus_dsl.Dsl
module Wellformed = Argus_gsn.Wellformed
module Informal = Argus_fallacy.Informal
module Program = Argus_prolog.Program
module Exec = Argus_prolog.Exec
module Caseir = Argus_ir.Caseir
module Fused = Argus_ir.Fused
module Lterm = Argus_logic.Term
module Proof_text = Argus_logic.Proof_text
module Natded = Argus_logic.Natded
module Prop = Argus_logic.Prop
module Confidence = Argus_confidence.Confidence
module Store = Argus_store.Store
module Durable = Argus_store.Durable

let budget_diags = function None -> [] | Some b -> Budget.diagnostics b

let report_payload ds = [ ("report", Diagnostic.report_to_json ds) ]

let report_response ~id ds =
  Protocol.ok ~id
    ~exit_code:(if Diagnostic.has_errors ds then 1 else 0)
    (report_payload ds)

(* A user-input failure that is not a structured diagnostic (program
   or goal parse errors): exit 1 with a message payload. *)
let input_error ~id fmt =
  Printf.ksprintf
    (fun msg -> Protocol.ok ~id ~exit_code:1 [ ("message", Json.Str msg) ])
    fmt

let ruleset_of (req : Protocol.request) =
  match req.Protocol.ruleset with
  | "denney-pai" -> Wellformed.Denney_pai_2013
  | _ -> Wellformed.Standard

let check_source ~ruleset ~lints ?budget ~filename source =
  match Dsl.parse_collection ~filename source with
  | Error ds -> Error ds
  | Ok [ case ] when case.Dsl.module_name = None ->
      (* Single-case fast path: one interning, one fused pass. *)
      let r =
        Fused.check ~ruleset ?budget ~lints (Caseir.intern case.Dsl.structure)
      in
      Ok
        (r.Fused.wf @ Dsl.validate_metadata case @ r.Fused.informal
        @ budget_diags budget)
  | Ok cases -> (
      match Dsl.to_modular cases with
      | Error ds -> Error ds
      | Ok collection ->
          let r = Fused.check_modular ~ruleset ?budget ~lints collection in
          Ok
            (r.Fused.wf
            @ List.concat_map Dsl.validate_metadata cases
            @ r.Fused.informal @ budget_diags budget))

let check (req : Protocol.request) ~budget =
  match
    check_source ~ruleset:(ruleset_of req) ~lints:req.Protocol.lints ?budget
      ~filename:req.Protocol.filename req.Protocol.source
  with
  | Ok ds | Error ds -> report_response ~id:req.Protocol.id ds

let fallacies (req : Protocol.request) ~budget =
  let id = req.Protocol.id in
  match Dsl.parse ~filename:req.Protocol.filename req.Protocol.source with
  | Error ds -> report_response ~id ds
  | Ok case ->
      let ds =
        Fused.lint ?budget (Caseir.intern case.Dsl.structure)
        @ budget_diags budget
      in
      report_response ~id ds

let prove (req : Protocol.request) ~budget =
  let id = req.Protocol.id in
  match Program.of_string req.Protocol.source with
  | Error e -> input_error ~id "program error: %s" e
  | Ok program -> (
      match req.Protocol.goal with
      | None -> input_error ~id "prove needs a \"goal\" field"
      | Some goal_text -> (
          match Lterm.of_string goal_text with
          | Error e -> input_error ~id "goal error: %s" e
          | Ok goal ->
              let derivation =
                match budget with
                | None -> Exec.prove_term program goal
                | Some b -> Exec.prove_term ~budget:b program goal
              in
              let warnings = budget_diags budget in
              let payload =
                [
                  ("derivable", Json.Bool (derivation <> None));
                  ( "derivation",
                    match derivation with
                    | None -> Json.Null
                    | Some d ->
                        Json.Str
                          (Format.asprintf "%a" Exec.pp_derivation d) );
                ]
                @
                if warnings = [] then []
                else report_payload warnings
              in
              Protocol.ok ~id
                ~exit_code:
                  (if derivation = None || warnings <> [] then 1 else 0)
                payload))

let probe (req : Protocol.request) ~budget =
  let id = req.Protocol.id in
  match Proof_text.parse req.Protocol.source with
  | Error e -> input_error ~id "proof error: %s" e
  | Ok proof -> (
      match Natded.check proof with
      | Error ds -> report_response ~id ds
      | Ok checked ->
          let probes =
            List.map
              (fun premise ->
                let countermodel =
                  Confidence.probe_counterexample ?budget checked premise
                in
                Json.Obj
                  [
                    ("premise", Json.Str (Prop.to_string premise));
                    ("load_bearing", Json.Bool (countermodel <> None));
                    ( "countermodel",
                      match countermodel with
                      | None -> Json.Null
                      | Some model ->
                          Json.Obj
                            (List.map (fun (v, b) -> (v, Json.Bool b)) model)
                    );
                  ])
              checked.Natded.premises
          in
          let warnings = budget_diags budget in
          Protocol.ok ~id
            ~exit_code:(if warnings = [] then 0 else 1)
            ([
               ( "theorem",
                 Json.Str (Prop.to_string (Natded.theorem checked)) );
               ("probes", Json.List probes);
             ]
            @ if warnings = [] then [] else report_payload warnings))

let handle (req : Protocol.request) ~budget =
  match req.Protocol.op with
  | Protocol.Check -> check req ~budget
  | Protocol.Fallacies -> fallacies req ~budget
  | Protocol.Prove -> prove req ~budget
  | Protocol.Probe -> probe req ~budget
  | Protocol.Health | Protocol.Stats ->
      Protocol.error ~id:req.Protocol.id ~code:"svc/bad-request"
        (Printf.sprintf "%s is answered by the server, not a worker"
           (Protocol.op_to_string req.Protocol.op))
  | Protocol.Put | Protocol.Patch | Protocol.Verdict ->
      Protocol.error ~id:req.Protocol.id ~code:"svc/bad-request"
        (Printf.sprintf
           "%s needs a stateful server: start it with \"argus serve --store\""
           (Protocol.op_to_string req.Protocol.op))

(* --- the stateful handler: store ops over a shared Durable.t --- *)

(* Each refusal keeps its own wire code so `argus call` (and any
   client) can tell "that digest is gone" from "your batch is
   malformed" from "the disk failed and the store is read-only" —
   only the last one means "retry after an operator restart". *)
let store_error ~id (e : Durable.error) =
  let code =
    match e with
    | Durable.Store_error (Store.Unknown_digest _) -> "svc/unknown-digest"
    | Durable.Store_error (Store.Bad_edit _) -> "svc/bad-request"
    | Durable.Read_only _ -> "svc/store-read-only"
  in
  Protocol.error ~id ~code (Durable.error_message e)

let put store (req : Protocol.request) =
  let id = req.Protocol.id in
  let ruleset = ruleset_of req in
  match
    Dsl.parse_collection ~filename:req.Protocol.filename req.Protocol.source
  with
  | Error ds -> report_response ~id ds
  | Ok [ case ] when case.Dsl.module_name = None -> (
      match Durable.put ~ruleset store case.Dsl.structure with
      | Error e -> store_error ~id e
      | Ok digest ->
          (* The seq echo is the retry audit trail: a client that had
             to resend sees whether its write committed once or twice
             (the digest cannot tell — replays converge on it). *)
          Protocol.ok ~id ~exit_code:0
            [ ("digest", Json.Str digest); ("seq", Json.int (Durable.seq store)) ])
  | Ok _ ->
      Protocol.error ~id ~code:"svc/bad-request"
        "put stores exactly one unnamed case"

let with_digest (req : Protocol.request) k =
  match req.Protocol.digest with
  | None ->
      Protocol.error ~id:req.Protocol.id ~code:"svc/bad-request"
        (Printf.sprintf "%s needs a \"digest\" field"
           (Protocol.op_to_string req.Protocol.op))
  | Some digest -> k digest

let patch store (req : Protocol.request) =
  let id = req.Protocol.id in
  with_digest req (fun digest ->
      match Durable.patch store ~digest req.Protocol.edits with
      | Error e -> store_error ~id e
      | Ok digest' ->
          Protocol.ok ~id ~exit_code:0
            [ ("digest", Json.Str digest'); ("seq", Json.int (Durable.seq store)) ])

let verdict store (req : Protocol.request) =
  let id = req.Protocol.id in
  with_digest req (fun digest ->
      match Durable.verdict store ~digest with
      | Error e -> store_error ~id e
      | Ok v ->
          let ds =
            v.Store.result.Fused.wf @ v.Store.result.Fused.informal
          in
          Protocol.ok ~id
            ~exit_code:(if Diagnostic.has_errors ds then 1 else 0)
            [
              ("digest", Json.Str v.Store.vdigest);
              ("report", Diagnostic.report_to_json ds);
              ("confidence", Json.Num v.Store.confidence);
              ("from_memo", Json.Bool v.Store.from_memo);
            ])

let with_store store (req : Protocol.request) ~budget =
  match req.Protocol.op with
  | Protocol.Put -> put store req
  | Protocol.Patch -> patch store req
  | Protocol.Verdict -> verdict store req
  | _ -> handle req ~budget
