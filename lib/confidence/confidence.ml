module Id = Argus_core.Id
module Evidence = Argus_core.Evidence
module Prop = Argus_logic.Prop
module Sat = Argus_logic.Sat
module Natded = Argus_logic.Natded
module Structure = Argus_gsn.Structure
module Node = Argus_gsn.Node

type graph = {
  nodes : Node.t array;
  n_entities : int;
  sup_off : int array;
  sup : int array;
  evidence : Id.t -> Evidence.t option;
}

(* The one confidence kernel: a memoised recursion over entity indices
   with an on-path bitmap.  It takes the same steps as the Id.Map
   recursion in test/oracle ([Oracle.Confidence]), so every float is
   bit-identical to it:
   - the memo is read before the path, and a node on the path scores 0
     without being memoised;
   - every child is scored, in link order, even where the node's own
     score ignores them (solutions, contextual nodes): under cycles
     those calls fill the memo that later nodes read;
   - noisy-AND and noisy-OR fold the children left to right, the same
     multiplications in the same order;
   - the outer loop visits non-contextual nodes in node order; given
     [~until:r] it stops once entity [r] is scored, since later visits
     never change a memoised score. *)
let score ?until ~trust g =
  let n_nodes = Array.length g.nodes in
  let memo = Array.make g.n_entities 0.0 in
  let scored = Array.make g.n_entities false in
  let on_path = Array.make g.n_entities false in
  let rec conf i =
    if scored.(i) then memo.(i)
    else if on_path.(i) then 0.0
    else begin
      let c = if i < n_nodes then node_conf i else 0.0 in
      memo.(i) <- c;
      scored.(i) <- true;
      c
    end
  and node_conf i =
    on_path.(i) <- true;
    let lo = g.sup_off.(i) and hi = g.sup_off.(i + 1) in
    let all = ref 1.0 and none = ref 1.0 in
    for k = lo to hi - 1 do
      let x = conf g.sup.(k) in
      all := !all *. x;
      none := !none *. (1.0 -. x)
    done;
    on_path.(i) <- false;
    let kids = hi > lo in
    let n = g.nodes.(i) in
    match n.Node.node_type with
    | Node.Solution -> (
        match n.Node.evidence with
        | None -> 0.0
        | Some ev_id -> (
            match g.evidence ev_id with None -> 0.0 | Some ev -> trust ev))
    | Node.Strategy -> if kids then !all else 0.0
    | Node.Goal | Node.Away_goal _ ->
        if
          n.Node.status = Node.Undeveloped
          || n.Node.status = Node.Undeveloped_uninstantiated
        then 0.0
        else if kids then 1.0 -. !none
        else 0.0
    | Node.Module_ref _ | Node.Contract _ ->
        if kids then 1.0 -. !none else 0.0
    | Node.Context | Node.Assumption | Node.Justification -> 0.0
  in
  let i = ref 0 in
  let finished () =
    match until with Some r -> scored.(r) | None -> false
  in
  while !i < n_nodes && not (finished ()) do
    if not (Node.is_contextual g.nodes.(!i).Node.node_type) then
      ignore (conf !i);
    incr i
  done;
  (memo, scored)

let score_root ~trust g root =
  let memo, scored = score ~until:root ~trust g in
  if scored.(root) then memo.(root) else 0.0

(* A structure's graph in one pass over its links: nodes first in node
   order, then each dangling SupportedBy target once, in link order.
   Dangling sources get no entity — a dangling id scores 0 without
   reading its children.  The same pass marks every SupportedBy target,
   which yields {!Structure.roots}' first root ([-1] if none).  Also
   returns the dangling entities' ids, newest first. *)
let graph_of structure =
  let nodes = Array.of_list (Structure.nodes structure) in
  let n_nodes = Array.length nodes in
  let index = Hashtbl.create (2 * n_nodes + 1) in
  Array.iteri (fun i n -> Hashtbl.replace index (Id.to_string n.Node.id) i) nodes;
  let dangling = ref [] and n_entities = ref n_nodes in
  let supported = Array.make n_nodes false in
  let srcs = ref [] and dsts = ref [] and n_links = ref 0 in
  let out_deg = Array.make n_nodes 0 in
  List.iter
    (fun (kind, src, dst) ->
      if kind = Structure.Supported_by then begin
        let d =
          match Hashtbl.find_opt index (Id.to_string dst) with
          | Some d -> d
          | None ->
              let d = !n_entities in
              Hashtbl.replace index (Id.to_string dst) d;
              dangling := dst :: !dangling;
              incr n_entities;
              d
        in
        if d < n_nodes then supported.(d) <- true;
        match Hashtbl.find_opt index (Id.to_string src) with
        | Some s when s < n_nodes ->
            out_deg.(s) <- out_deg.(s) + 1;
            srcs := s :: !srcs;
            dsts := d :: !dsts;
            incr n_links
        | _ -> ()
      end)
    (Structure.links structure);
  let n_entities = !n_entities in
  let sup_off = Array.make (n_entities + 1) 0 in
  for i = 0 to n_nodes - 1 do
    sup_off.(i + 1) <- sup_off.(i) + out_deg.(i)
  done;
  for i = n_nodes + 1 to n_entities do
    sup_off.(i) <- sup_off.(n_nodes)
  done;
  (* The link lists were accumulated newest first: fill each node's
     slots from the back so its children land in link order. *)
  let fill = Array.init n_nodes (fun i -> sup_off.(i + 1)) in
  let sup = Array.make !n_links 0 in
  List.iter2
    (fun s d ->
      fill.(s) <- fill.(s) - 1;
      sup.(fill.(s)) <- d)
    !srcs !dsts;
  let root = ref (-1) in
  Array.iteri
    (fun i n ->
      if
        !root < 0
        && (not supported.(i))
        && not (Node.is_contextual n.Node.node_type)
      then root := i)
    nodes;
  let evidence id = Structure.find_evidence id structure in
  ({ nodes; n_entities; sup_off; sup; evidence }, !root, !dangling)

let assess ~trust structure =
  let g, _, dangling = graph_of structure in
  let ids =
    Array.append
      (Array.map (fun n -> n.Node.id) g.nodes)
      (Array.of_list (List.rev dangling))
  in
  let memo, scored = score ~trust g in
  let m = ref Id.Map.empty in
  Array.iteri (fun i s -> if s then m := Id.Map.add ids.(i) memo.(i) !m) scored;
  !m

let root_confidence ~trust structure =
  match graph_of structure with
  | _, -1, _ -> 0.0
  | g, root, _ -> score_root ~trust g root

let impact_by_tracing structure evidence_id =
  let citing =
    List.filter
      (fun n ->
        n.Node.node_type = Node.Solution
        && n.Node.evidence = Some evidence_id)
      (Structure.nodes structure)
  in
  let seen = ref Id.Set.empty in
  let order = ref [] in
  let rec up id =
    List.iter
      (fun parent ->
        if not (Id.Set.mem parent !seen) then begin
          seen := Id.Set.add parent !seen;
          order := parent :: !order;
          up parent
        end)
      (Structure.parents Structure.Supported_by id structure)
  in
  List.iter (fun n -> up n.Node.id) citing;
  List.rev !order

let sensitivity ~trust structure evidence_id =
  let baseline = root_confidence ~trust structure in
  let trust' ev =
    if Id.equal ev.Evidence.id evidence_id then 0.0 else trust ev
  in
  baseline -. root_confidence ~trust:trust' structure

let probe_premise ?budget checked premise =
  let remaining =
    List.filter
      (fun p -> not (Prop.equal p premise))
      checked.Natded.premises
  in
  Sat.entails ?budget remaining checked.Natded.conclusion

let load_bearing_premises ?budget checked =
  List.filter
    (fun p -> not (probe_premise ?budget checked p))
    checked.Natded.premises

let probe_counterexample ?budget checked premise =
  if probe_premise ?budget checked premise then None
  else
    let remaining =
      List.filter
        (fun p -> not (Prop.equal p premise))
        checked.Natded.premises
    in
    Sat.models ?budget
      (Prop.And (Prop.conj remaining, Prop.Not checked.Natded.conclusion))
