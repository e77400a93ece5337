(** The list-walking GSN well-formedness checker, the differential
    oracle for {!Argus_ir.Fused.check}'s [wf] half. *)

val check :
  ?ruleset:Argus_gsn.Wellformed.ruleset ->
  Argus_gsn.Structure.t ->
  Argus_core.Diagnostic.t list
(** Diagnostics carry codes under ["gsn/"].  Errors:
    ["gsn/dangling-link"], ["gsn/bad-support-link"],
    ["gsn/bad-context-link"], ["gsn/solution-in-context-of-away-goal"],
    ["gsn/cycle"], ["gsn/no-root"], ["gsn/unsupported-goal"],
    ["gsn/undeveloped-strategy"], ["gsn/unknown-evidence"],
    ["gsn/empty-text"], ["gsn/placeholder-text"], and (strict set only)
    ["gsn/dp-goal-under-goal"].  Warnings: ["gsn/multiple-roots"],
    ["gsn/root-not-goal"], ["gsn/undeveloped-with-support"],
    ["gsn/solution-without-evidence"], ["gsn/unreachable"],
    ["gsn/non-propositional-goal"], ["gsn/uninstantiated"],
    ["gsn/weak-evidence"]. *)

val is_well_formed :
  ?ruleset:Argus_gsn.Wellformed.ruleset -> Argus_gsn.Structure.t -> bool
(** No errors (warnings allowed). *)
