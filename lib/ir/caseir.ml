(* Array-backed interning of a GSN structure.

   [Structure.t] is built for functional editing: nodes in an [Id.Map],
   links and orderings as lists, every child/parent query a full scan of
   the link list.  The checkers do thousands of such queries per case,
   so checking a case repeatedly (a service, the bench loops, the
   experiment sweeps) pays the scan cost every time.  Interning flattens
   the structure once into integer-indexed arrays — an entity table and
   CSR-style adjacency — after which every traversal the checkers need
   is an index walk.

   The entity table is the subtle part.  Link endpoints need not name
   existing nodes (the structure is deliberately permissive; the checker
   reports dangling endpoints), and the legacy traversals propagate
   {e through} missing ids: [Structure.supported_subtree] and
   [Structure.has_cycle] recurse into a dangling endpoint's own outgoing
   links.  So the table interns every id the structure mentions — the
   nodes first, in insertion order, then the dangling link endpoints in
   link-scan order — and the adjacency covers all of them.  An entity
   index [i] names a real node iff [i < n_nodes].

   Interning also caches the per-node text derivations the checkers
   recompute on every run (content words, the normalised claim text,
   the ignorance/universal/propositional predicates); the graph shape
   and the texts are immutable once interned, so these are plain
   arrays.  [ir.interned] counts interning passes.

   For the incremental store (lib/store), [set_node] patches the flat
   entity arrays in place for a payload-only edit (same id, same links,
   same contextual-ness), so a one-node text edit never rebuilds the
   CSR adjacency at all.  [ir.patched] counts in-place patches. *)

module Id = Argus_core.Id
module Textutil = Argus_core.Textutil
module Node = Argus_gsn.Node
module Structure = Argus_gsn.Structure
module Wellformed = Argus_gsn.Wellformed
module Informal = Argus_fallacy.Informal

type derived = {
  d_goal_like : bool;
  d_norm : string;
  d_content : string list;
  d_ignorance : bool;
  d_universal : bool;
  d_propositional : bool;
}

type t = {
  structure : Structure.t;  (** The source, for evidence lookups. *)
  n_nodes : int;  (** Entities [0 .. n_nodes-1] are real nodes. *)
  n_entities : int;  (** Nodes plus dangling link endpoints. *)
  index : (string, int) Hashtbl.t;  (** Id string to entity index. *)
  ids : Id.t array;  (** Entity index to id; length [n_entities]. *)
  nodes : Node.t array;  (** Length [n_nodes], insertion order. *)
  link_kind : Structure.link array;  (** Links in insertion order. *)
  link_src : int array;
  link_dst : int array;
  sup_out_off : int array;  (** CSR offsets, length [n_entities + 1]. *)
  sup_out : int array;  (** SupportedBy targets, link order per entity. *)
  sup_in_off : int array;
  sup_in : int array;  (** SupportedBy sources, link order per entity. *)
  roots : int list;  (** Unsupported non-contextual nodes, node order. *)
  reachable : bool array;
      (** Entity reachable from some root over SupportedBy, or in the
          context of such an entity — [Wellformed]'s reachability. *)
  goal_like : bool array;  (** Per node: {!Node.is_goal_like}. *)
  norm : string array;  (** Per node: normalised content-word text. *)
  content : string list array;  (** Per node: {!Textutil.content_words}. *)
  ignorance : bool array;  (** Per node: {!Informal.argues_from_ignorance}. *)
  universal : bool array;
      (** Per goal-like node: {!Wellformed.claims_universally}. *)
  propositional : bool array;
      (** Per [Goal] node: {!Node.looks_propositional}. *)
}

let c_interned = Argus_obs.Counter.make "ir.interned"
let c_patched = Argus_obs.Counter.make "ir.patched"

(* Everything the checkers derive from one node payload, independent of
   the surrounding graph.  One tokenizer pass lower-cases each word
   once, keeps its content form and tests it against the universal and
   verb marker sets; the symbolic-notation and ignorance scans are one
   byte pass each.  Equal to composing the public predicates
   ([Textutil.content_words], [Wellformed.claims_universally],
   [Node.looks_propositional], [Informal.argues_from_ignorance]), which
   wrap the same scanners; test/oracle keeps the list-based originals
   as the differential oracle. *)
let derive (n : Node.t) =
  let text = n.Node.text in
  let gl = Node.is_goal_like n.Node.node_type in
  let goal = n.Node.node_type = Node.Goal in
  let universal = ref false and verb = ref false in
  let rev_words =
    Textutil.fold_lower_words
      (fun w acc ->
        if gl && (not !universal) && Wellformed.is_universal_marker w then
          universal := true;
        if goal && (not !verb) && Node.is_verb_marker w then verb := true;
        match Textutil.content_of_lower w with
        | Some c -> c :: acc
        | None -> acc)
      text []
  in
  let words = List.rev rev_words in
  {
    d_goal_like = gl;
    d_norm = String.concat " " words;
    d_content = words;
    d_ignorance = Informal.argues_from_ignorance text;
    d_universal = !universal;
    d_propositional =
      (if goal then !verb || Textutil.contains_symbolic_notation text
       else true);
  }

let intern structure =
  Argus_obs.Counter.incr c_interned;
  let nodes = Array.of_list (Structure.nodes structure) in
  let n_nodes = Array.length nodes in
  let links = Array.of_list (Structure.links structure) in
  let n_links = Array.length links in
  (* Entity table: nodes first, then dangling endpoints as met. *)
  let index = Hashtbl.create (2 * (n_nodes + 1)) in
  Array.iteri
    (fun i n -> Hashtbl.replace index (Id.to_string n.Node.id) i)
    nodes;
  let extra = ref [] in
  let next = ref n_nodes in
  let entity id =
    let key = Id.to_string id in
    match Hashtbl.find_opt index key with
    | Some i -> i
    | None ->
        let i = !next in
        incr next;
        Hashtbl.add index key i;
        extra := id :: !extra;
        i
  in
  let link_kind = Array.make n_links Structure.Supported_by in
  let link_src = Array.make n_links 0 in
  let link_dst = Array.make n_links 0 in
  Array.iteri
    (fun k (kind, src, dst) ->
      link_kind.(k) <- kind;
      link_src.(k) <- entity src;
      link_dst.(k) <- entity dst)
    links;
  let n_entities = !next in
  let ids = Array.make (max 1 n_entities) (Id.of_string "x") in
  Array.iteri (fun i n -> ids.(i) <- n.Node.id) nodes;
  List.iteri (fun j id -> ids.(n_entities - 1 - j) <- id) !extra;
  (* CSR adjacency: count, prefix-sum, fill in link order. *)
  let csr select =
    let count = Array.make n_entities 0 in
    for k = 0 to n_links - 1 do
      match select k with
      | Some (at, _) -> count.(at) <- count.(at) + 1
      | None -> ()
    done;
    let off = Array.make (n_entities + 1) 0 in
    for i = 0 to n_entities - 1 do
      off.(i + 1) <- off.(i) + count.(i)
    done;
    let dat = Array.make off.(n_entities) 0 in
    let cursor = Array.copy off in
    for k = 0 to n_links - 1 do
      match select k with
      | Some (at, v) ->
          dat.(cursor.(at)) <- v;
          cursor.(at) <- cursor.(at) + 1
      | None -> ()
    done;
    (off, dat)
  in
  let sup_out_off, sup_out =
    csr (fun k ->
        if link_kind.(k) = Structure.Supported_by then
          Some (link_src.(k), link_dst.(k))
        else None)
  in
  let sup_in_off, sup_in =
    csr (fun k ->
        if link_kind.(k) = Structure.Supported_by then
          Some (link_dst.(k), link_src.(k))
        else None)
  in
  (* Roots: no incoming SupportedBy, non-contextual type — node order. *)
  let roots = ref [] in
  for i = n_nodes - 1 downto 0 do
    if
      sup_in_off.(i + 1) = sup_in_off.(i)
      && not (Node.is_contextual nodes.(i).Node.node_type)
    then roots := i :: !roots
  done;
  let roots = !roots in
  (* Reachability: SupportedBy closure of the roots, plus the contexts
     of every entity in it (one hop, as the legacy checker unions
     [context_of] over subtree members). *)
  let supported = Array.make (max 1 n_entities) false in
  let rec mark i =
    if not supported.(i) then begin
      supported.(i) <- true;
      for k = sup_out_off.(i) to sup_out_off.(i + 1) - 1 do
        mark sup_out.(k)
      done
    end
  in
  List.iter mark roots;
  let reachable = Array.copy supported in
  Array.iteri
    (fun k kind ->
      if kind = Structure.In_context_of && supported.(link_src.(k)) then
        reachable.(link_dst.(k)) <- true)
    link_kind;
  (* Cached text derivations. *)
  let goal_like = Array.make (max 1 n_nodes) false in
  let norm = Array.make (max 1 n_nodes) "" in
  let content = Array.make (max 1 n_nodes) [] in
  let ignorance = Array.make (max 1 n_nodes) false in
  let universal = Array.make (max 1 n_nodes) false in
  let propositional = Array.make (max 1 n_nodes) true in
  Array.iteri
    (fun i n ->
      let d = derive n in
      goal_like.(i) <- d.d_goal_like;
      content.(i) <- d.d_content;
      norm.(i) <- d.d_norm;
      ignorance.(i) <- d.d_ignorance;
      universal.(i) <- d.d_universal;
      propositional.(i) <- d.d_propositional)
    nodes;
  {
    structure;
    n_nodes;
    n_entities;
    index;
    ids;
    nodes;
    link_kind;
    link_src;
    link_dst;
    sup_out_off;
    sup_out;
    sup_in_off;
    sup_in;
    roots;
    reachable;
    goal_like;
    norm;
    content;
    ignorance;
    universal;
    propositional;
  }

let entity_index ir id = Hashtbl.find_opt ir.index (Id.to_string id)

(* Payload-only patch: replace node [i]'s payload and its cached text
   derivations in the flat arrays, leaving the entity table, CSR
   adjacency, roots and reachability untouched — they are functions of
   the ids and links only, which a payload edit preserves.  The one
   shape-relevant bit of a payload is whether its type is contextual
   (it feeds root detection), so a contextual-ness flip is refused and
   the caller re-interns.

   Mutates [ir]'s arrays in place: the returned value shares them, and
   the argument must not be used afterwards.  [structure] is the
   already-edited source the returned IR should carry (for evidence
   lookups). *)
let set_node ir structure i n =
  if i < 0 || i >= ir.n_nodes then invalid_arg "Caseir.set_node: index";
  let old = ir.nodes.(i) in
  if not (Id.equal old.Node.id n.Node.id) then
    invalid_arg "Caseir.set_node: id change needs a re-intern";
  if
    Node.is_contextual old.Node.node_type
    <> Node.is_contextual n.Node.node_type
  then invalid_arg "Caseir.set_node: contextual-ness change needs a re-intern";
  Argus_obs.Counter.incr c_patched;
  ir.nodes.(i) <- n;
  let d = derive n in
  ir.goal_like.(i) <- d.d_goal_like;
  ir.norm.(i) <- d.d_norm;
  ir.content.(i) <- d.d_content;
  ir.ignorance.(i) <- d.d_ignorance;
  ir.universal.(i) <- d.d_universal;
  ir.propositional.(i) <- d.d_propositional;
  { ir with structure }

(* The legacy cycle search, verbatim over entity indices: DFS from each
   node entity in insertion order with the recursion stack as the path;
   entities proven cycle-free as entry points are skipped on later
   entries.  The witness (first back edge in this exact order) must
   match [Structure.has_cycle]'s, because it lands in a diagnostic's
   subject list. *)
let has_cycle ir =
  let cleared = Array.make (max 1 ir.n_entities) false in
  let rec visit path i =
    if List.mem i path then Some (List.rev (i :: path))
    else if cleared.(i) then None
    else
      let path = i :: path in
      let rec go k =
        if k >= ir.sup_out_off.(i + 1) then None
        else
          match visit path ir.sup_out.(k) with
          | Some _ as w -> w
          | None -> go (k + 1)
      in
      go ir.sup_out_off.(i)
  in
  let rec entries i =
    if i >= ir.n_nodes then None
    else
      match visit [] i with
      | Some w -> Some (List.map (fun e -> ir.ids.(e)) w)
      | None ->
          cleared.(i) <- true;
          entries (i + 1)
  in
  entries 0
