(** Array-backed interning of a GSN structure.

    {!Argus_gsn.Structure.t} is a persistent, edit-friendly
    representation; every traversal query scans its link list.  The
    fused checker ({!Fused}) instead runs over this flat form: an
    entity table mapping every id the structure mentions — nodes first,
    in insertion order, then dangling link endpoints in link-scan order
    — to a dense integer index, CSR-style adjacency arrays over those
    indices, and per-node caches of the text derivations the checkers
    recompute on every legacy run.

    Dangling endpoints are first-class entities because the legacy
    traversals propagate through them: a missing node's own outgoing
    links still feed reachability and the cycle search.  An entity
    index [i] names a real node iff [i < n_nodes].

    Intern once, check many times: the structure and its texts are
    immutable, so everything here — roots, reachability, content words
    — is computed a single time and amortised over every subsequent
    {!Fused.check}.  [ir.interned] counts interning passes.

    For the incremental store (lib/store), {!set_node} patches the flat
    arrays in place for payload-only edits ([ir.patched] counts
    them). *)

type derived = {
  d_goal_like : bool;  (** {!Argus_gsn.Node.is_goal_like}. *)
  d_norm : string;  (** Normalised content-word text. *)
  d_content : string list;  (** {!Argus_core.Textutil.content_words}. *)
  d_ignorance : bool;
      (** {!Argus_fallacy.Informal.argues_from_ignorance}. *)
  d_universal : bool;
      (** {!Argus_gsn.Wellformed.claims_universally}; [false] unless
          goal-like. *)
  d_propositional : bool;
      (** {!Argus_gsn.Node.looks_propositional}; [true] unless a
          [Goal]. *)
}
(** Everything the checkers derive from one node payload, independent
    of the surrounding graph. *)

type t = {
  structure : Argus_gsn.Structure.t;  (** The source, for evidence lookups. *)
  n_nodes : int;  (** Entities [0 .. n_nodes-1] are real nodes. *)
  n_entities : int;  (** Nodes plus dangling link endpoints. *)
  index : (string, int) Hashtbl.t;  (** Id string to entity index. *)
  ids : Argus_core.Id.t array;  (** Entity index to id. *)
  nodes : Argus_gsn.Node.t array;  (** Length [n_nodes], insertion order. *)
  link_kind : Argus_gsn.Structure.link array;  (** Insertion order. *)
  link_src : int array;
  link_dst : int array;
  sup_out_off : int array;  (** CSR offsets, length [n_entities + 1]. *)
  sup_out : int array;  (** SupportedBy targets, link order per entity. *)
  sup_in_off : int array;
  sup_in : int array;  (** SupportedBy sources, link order per entity. *)
  roots : int list;  (** As {!Argus_gsn.Structure.roots}, node order. *)
  reachable : bool array;
      (** {!Argus_gsn.Wellformed}'s reachability: the SupportedBy
          closure of the roots plus one InContextOf hop from it. *)
  goal_like : bool array;  (** Per node: {!Argus_gsn.Node.is_goal_like}. *)
  norm : string array;  (** Per node: normalised content-word text. *)
  content : string list array;
      (** Per node: {!Argus_core.Textutil.content_words}. *)
  ignorance : bool array;
      (** Per node: {!Argus_fallacy.Informal.argues_from_ignorance}. *)
  universal : bool array;
      (** Per goal-like node:
          {!Argus_gsn.Wellformed.claims_universally}. *)
  propositional : bool array;
      (** Per [Goal] node: {!Argus_gsn.Node.looks_propositional}. *)
}
(** Treat all fields as read-only; the checkers index them freely. *)

val derive : Argus_gsn.Node.t -> derived
(** The per-payload derivation {!intern} and {!set_node} compute for
    each node. *)

val intern : Argus_gsn.Structure.t -> t

val entity_index : t -> Argus_core.Id.t -> int option
(** The entity index of an id the structure mentions, if any. *)

val set_node :
  t ->
  Argus_gsn.Structure.t ->
  int ->
  Argus_gsn.Node.t ->
  t
(** [set_node ir structure i n] replaces node [i]'s payload in place —
    entity table, CSR adjacency, roots and reachability are untouched,
    so a one-node edit costs one {!derive}, not a rebuild.  [structure]
    is the already-edited source for the returned IR to carry.  The
    arrays are mutated: the returned IR shares them and [ir] must not
    be used afterwards.  Raises [Invalid_argument] if [n] changes the
    node's id or the contextual-ness of its type (those edits need a
    full re-intern). *)

val has_cycle : t -> Argus_core.Id.t list option
(** {!Argus_gsn.Structure.has_cycle} over the interned adjacency — the
    same entry order and DFS, so the same witness. *)
