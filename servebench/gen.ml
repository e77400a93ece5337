(* Seeded inputs for the serving benchmark.

   Generated cases are GSN trees shaped like the ones assurance tools
   emit in bulk: a root goal over one strategy over regions, each
   region a goal argued over a handful of leaf goals, each leaf
   supported by a solution citing an evidence item.  About half of the
   node texts come from a boilerplate pool that is the same in every
   run and every case, so the store's node arena sees the cross-case
   repetition real corpora have; the rest are fresh per node. *)

module Prng = Argus_core.Prng
module Id = Argus_core.Id
module Evidence = Argus_core.Evidence
module Node = Argus_gsn.Node
module Structure = Argus_gsn.Structure

let pick rng a = a.(Prng.int rng (Array.length a))

let subjects =
  [|
    "brake controller"; "steering monitor"; "fuel valve"; "watchdog timer";
    "pressure sensor"; "door interlock"; "flight computer"; "battery manager";
    "pump driver"; "alarm panel"; "network gateway"; "power supply";
    "hydraulic actuator"; "speed governor"; "thermal cutout";
    "navigation filter"; "landing gear"; "cabin heater"; "relay bank";
    "motor inverter";
  |]

let verbs =
  [|
    "remains within"; "prevents"; "ensures"; "satisfies"; "meets";
    "complies with"; "operates within"; "holds";
  |]

let objects =
  [|
    "the timing budget"; "overspeed hazard"; "requirement"; "the thermal limit";
    "the current envelope"; "isolation rule"; "the response deadline";
    "interlock condition"; "the leakage limit"; "the voltage margin";
  |]

let qualifiers =
  [|
    "during cold start"; "under single faults"; "in degraded mode";
    "while the sensor is stale"; "after a power cycle"; "at peak load";
    "during maintenance"; "with one channel failed";
  |]

let evidence_kinds =
  [|
    Evidence.Test_results; Evidence.Analysis; Evidence.Review;
    Evidence.Simulation; Evidence.Field_data; Evidence.Formal_proof;
  |]

type kind = Goal | System | Strategy | Solution | Context

(* Texts always name their subsystem, so sibling goals share at least
   its two words.  Unrelated random texts would often share exactly
   one, and the equivocation lint (one shared word between otherwise
   disjoint siblings) would then fire on most pairs, as it does not on
   a real case. *)
let fresh_text rng subject = function
  | Goal ->
      Printf.sprintf "The %s %s %s %d %s" subject (pick rng verbs)
        (pick rng objects) (Prng.int rng 100_000) (pick rng qualifiers)
  | System ->
      (* Subsystem goals are siblings of each other across subjects: a
         fixed frame makes them share several words, never just one. *)
      Printf.sprintf "The %s subsystem is acceptably safe in configuration %d"
        subject (Prng.int rng 100_000)
  | Strategy ->
      Printf.sprintf "Argue over the failure modes of the %s unit %d" subject
        (Prng.int rng 100_000)
  | Solution ->
      Printf.sprintf "Results of campaign %d on the %s %s" (Prng.int rng 100_000)
        subject (pick rng qualifiers)
  | Context ->
      Printf.sprintf "Operating envelope %d of the %s" (Prng.int rng 100_000)
        subject

(* The boilerplate pool is seed-independent on purpose: repetition
   across cases (and across runs of one server) is the property the
   node arena exploits. *)
let pool_per_subject = 16

let kind_index = function
  | Goal | System -> 0
  | Strategy -> 1
  | Solution -> 2
  | Context -> 3

let pool =
  let rng = Prng.create 0x5eed in
  Array.map
    (fun k ->
      Array.map
        (fun s -> Array.init pool_per_subject (fun _ -> fresh_text rng s k))
        subjects)
    [| Goal; Strategy; Solution; Context |]

(* Half pooled, half fresh.  Goals above the leaves are always fresh:
   a pooled one could repeat an ancestor's claim word for word, which
   the circular-support lint rightly reports. *)
let text ?(pooled = true) rng subject k =
  if pooled && Prng.bernoulli rng 0.5 then
    pool.(kind_index k).(subject).(Prng.int rng pool_per_subject)
  else fresh_text rng subjects.(subject) k

(* Cases carry a few defects, as cases under development do, so that
   verdicts have findings to report and to get wrong: a leaf goal argued
   from ignorance, or a solution citing evidence that is not in the
   register.  At most 2% of leaves, and about eight per case however
   large: a report the size of the case would turn every verdict into a
   serialisation benchmark. *)
let defect_rate nodes = Float.min 0.02 (8. /. float nodes)

let ignorance_text rng subject =
  Printf.sprintf "There is no evidence that the %s exceeds limit %d" subject
    (Prng.int rng 100_000)

let evidence_table =
  Array.to_list
    (Array.mapi
       (fun i kind ->
         Evidence.make
           ~id:(Id.of_string (Printf.sprintf "E%d" (i + 1)))
           ~kind
           ~source:(Printf.sprintf "report T-%d" (40 + i))
           (Printf.sprintf "Evidence package %d" (i + 1)))
       evidence_kinds)

type case = {
  structure : Structure.t;
  n_nodes : int;
  leaves : (Id.t * int) array;
      (** The leaf goals with their subject: targets of text edits. *)
  texts : string list;  (** Every node text, for the repetition fact. *)
  source : string Lazy.t;  (** The case in the DSL, as a put sends it. *)
}

let type_word = function
  | Node.Goal -> "goal"
  | Node.Strategy -> "strategy"
  | Node.Solution -> "solution"
  | _ -> "context"

(* The DSL text, emitted in one pass ([Dsl.print] scans the whole
   link list per node, which is quadratic at these sizes).  Texts
   never contain quotes or backslashes. *)
let emit ~title nodes children =
  let buf = Buffer.create (List.length nodes * 96) in
  Printf.bprintf buf "case \"%s\" {\n" title;
  List.iter
    (fun (ev : Evidence.t) ->
      Printf.bprintf buf "  evidence %s %s \"%s\" source \"%s\" strength %s\n"
        (Id.to_string ev.Evidence.id)
        (Evidence.kind_to_string ev.Evidence.kind)
        ev.Evidence.description ev.Evidence.source
        (Evidence.strength_to_string ev.Evidence.strength))
    evidence_table;
  List.iter
    (fun (n : Node.t) ->
      let id = Id.to_string n.Node.id in
      Printf.bprintf buf "  %s %s \"%s\"" (type_word n.Node.node_type) id
        n.Node.text;
      let sup, ctx =
        match Hashtbl.find_opt children id with
        | Some (s, c) -> (List.rev s, List.rev c)
        | None -> ([], [])
      in
      let body =
        (match n.Node.evidence with
        | Some e -> [ "evidence " ^ Id.to_string e ]
        | None -> [])
        @ (if sup = [] then [] else [ "supported-by " ^ String.concat ", " sup ])
        @ if ctx = [] then [] else [ "in-context-of " ^ String.concat ", " ctx ]
      in
      if body = [] then Buffer.add_char buf '\n'
      else begin
        Buffer.add_string buf " {\n";
        List.iter (Printf.bprintf buf "    %s\n") body;
        Buffer.add_string buf "  }\n"
      end)
    nodes;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let regions_per_system = 12

(* A case of about [nodes] nodes: Top -> St -> subsystem goals, each
   argued over up to [regions_per_system] region goals, each argued
   over 3-9 leaf goals with one solution apiece. *)
let case ?(title = "generated") rng ~nodes =
  let acc = ref [] and links = ref [] and leaves = ref [] and texts = ref [] in
  let children = Hashtbl.create 1024 in
  let add ?pooled id node_type ?evidence subject k =
    let t = text ?pooled rng subject k in
    texts := t :: !texts;
    acc := Node.make ~id:(Id.of_string id) ~node_type ?evidence t :: !acc
  in
  let link kind src dst =
    links := (kind, src, dst) :: !links;
    let s, c = Option.value ~default:([], []) (Hashtbl.find_opt children src) in
    Hashtbl.replace children src
      (if kind = Structure.Supported_by then (dst :: s, c) else (s, dst :: c))
  in
  let defect_rate = defect_rate nodes in
  let top_subject = Prng.int rng (Array.length subjects) in
  add ~pooled:false "Top" Node.Goal top_subject Goal;
  add "Ctx" Node.Context top_subject Context;
  add "St" Node.Strategy top_subject Strategy;
  link Structure.Supported_by "Top" "St";
  link Structure.In_context_of "Top" "Ctx";
  let count = ref 3 and region = ref 0 and subject = ref top_subject in
  while !count < nodes - 1 || !region = 0 do
    let a = !region in
    incr region;
    let sys = a / regions_per_system in
    let ss = Printf.sprintf "SS%d" sys in
    if a mod regions_per_system = 0 then begin
      subject := Prng.int rng (Array.length subjects);
      let g = Printf.sprintf "Sys%d" sys in
      add ~pooled:false g Node.Goal !subject System;
      add ss Node.Strategy !subject Strategy;
      link Structure.Supported_by "St" g;
      link Structure.Supported_by g ss;
      count := !count + 2
    end;
    let r = Printf.sprintf "R%d" a and s = Printf.sprintf "S%d" a in
    add ~pooled:false r Node.Goal !subject Goal;
    add s Node.Strategy !subject Strategy;
    link Structure.Supported_by ss r;
    link Structure.Supported_by r s;
    count := !count + 2;
    let fan = max 1 (min (3 + Prng.int rng 7) ((nodes - !count) / 2)) in
    for b = 0 to fan - 1 do
      let l = Printf.sprintf "L%d_%d" a b and sn = Printf.sprintf "Sn%d_%d" a b in
      if Prng.bernoulli rng defect_rate then begin
        let t = ignorance_text rng subjects.(!subject) in
        texts := t :: !texts;
        acc := Node.make ~id:(Id.of_string l) ~node_type:Node.Goal t :: !acc
      end
      else add l Node.Goal !subject Goal;
      let cited =
        if Prng.bernoulli rng defect_rate then 0
        else 1 + Prng.int rng (Array.length evidence_kinds)
      in
      add sn Node.Solution !subject Solution
        ~evidence:(Id.of_string (Printf.sprintf "E%d" cited));
      link Structure.Supported_by s l;
      link Structure.Supported_by l sn;
      leaves := (Id.of_string l, !subject) :: !leaves
    done;
    count := !count + (2 * fan)
  done;
  let nodes = List.rev !acc in
  {
    structure =
      Structure.of_nodes ~links:(List.rev !links) ~evidence:evidence_table nodes;
    n_nodes = !count;
    leaves = Array.of_list (List.rev !leaves);
    texts = !texts;
    source = lazy (emit ~title nodes children);
  }

(* Stratified log-uniform sizes over [lo, hi]: the k-th case takes the
   midpoint of stratum [order.(k mod strata)], where [order] is the
   bit-reversal permutation, so every prefix of a run spreads over the
   whole range and every run sees the same sizes in the same order.
   The seed decides the cases' content, not their sizes: a run that
   completes a few more or fewer cases than another still measures the
   same distribution. *)
let strata = 16

let order =
  Array.init strata (fun i ->
      let r = ref 0 in
      for b = 0 to 3 do
        if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (3 - b))
      done;
      !r)

let stratified_size ~lo ~hi k =
  let u = (float order.(k mod strata) +. 0.5) /. float strata in
  int_of_float (exp (log (float lo) +. (u *. (log (float hi) -. log (float lo)))))

(* Replacement text for an edited leaf goal of a subsystem; one edit in
   200 introduces the defect an argument-from-ignorance lint reports. *)
let edit_text rng subject =
  if Prng.bernoulli rng 0.005 then ignorance_text rng subjects.(subject)
  else fresh_text rng subjects.(subject) Goal
