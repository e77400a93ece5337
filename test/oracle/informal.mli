(** The list-walking informal-fallacy lints, the differential oracle
    for {!Argus_ir.Fused.lint} and {!Argus_ir.Fused.check}'s [informal]
    half. *)

val check_structure :
  ?budget:Argus_rt.Budget.t ->
  Argus_gsn.Structure.t ->
  Argus_core.Diagnostic.t list
(** GSN-level informal-fallacy lints, warning codes under ["informal/"]:
    - ["informal/circular-support"] — a descendant goal restates an
      ancestor goal's text (normalised);
    - ["informal/argument-from-ignorance"] — node text argues from
      absence of evidence ("no evidence that", "has never been
      observed", "not been shown");
    - ["informal/equivocation-candidate"] — a content word that appears
      in several sibling goals with otherwise-disjoint vocabulary,
      suggesting the word may be doing double duty.

    The circular-support walk always runs under a budget: the caller's
    when [?budget] is given (the caller then owns reporting its
    exhaustion), otherwise an internal 10k-step one whose truncation is
    reported here as an ["rt/budget-exhausted"] warning. *)

val node_lints :
  Argus_ir.Caseir.t -> int -> (Argus_core.Diagnostic.t -> unit) -> unit
(** [node_lints ir i add] feeds [add] node [i]'s per-node lints
    (argument-from-ignorance, then equivocation among its goal-like
    children, pairs in sibling order) — the list-based pair scan that
    {!Argus_ir.Fused.node_lint_findings} replaced with a sorted-word
    merge. *)
