(** The fused checker: well-formedness and the informal-fallacy lints
    in one pass over an interned case ({!Caseir}), and the CAE rules
    over an interned CAE graph.

    The one shipped implementation of these checks.  The list-walking
    checkers it was compiled from live on as test-only differential
    oracles ([Oracle.Wellformed], [Oracle.Informal], [Oracle.Cae],
    [Oracle.Modular] in test/oracle): {!check} produces byte-identical
    diagnostic lists to them on the same structure — same findings,
    same order, same budget tick accounting for the circular-support
    walk — and {!check_cae} likewise (test/ir holds them to it).  The
    [gsn.wf.*] counters and [gsn.wellformed*] spans fire exactly as
    the oracle's do; [ir.fused_passes] counts fused passes. *)

type result = {
  wf : Argus_core.Diagnostic.t list;
      (** Well-formedness under the rule set, codes under ["gsn/"].
          Errors: ["gsn/dangling-link"], ["gsn/bad-support-link"],
          ["gsn/bad-context-link"],
          ["gsn/solution-in-context-of-away-goal"], ["gsn/cycle"],
          ["gsn/no-root"], ["gsn/unsupported-goal"],
          ["gsn/undeveloped-strategy"], ["gsn/unknown-evidence"],
          ["gsn/empty-text"], ["gsn/placeholder-text"], and (strict set
          only) ["gsn/dp-goal-under-goal"].  Warnings:
          ["gsn/multiple-roots"], ["gsn/root-not-goal"],
          ["gsn/undeveloped-with-support"],
          ["gsn/solution-without-evidence"], ["gsn/unreachable"],
          ["gsn/non-propositional-goal"], ["gsn/uninstantiated"],
          ["gsn/weak-evidence"]. *)
  informal : Argus_core.Diagnostic.t list;
      (** The informal-fallacy lints, warnings under ["informal/"]:
          ["informal/circular-support"] (a descendant goal restates an
          ancestor goal's normalised text),
          ["informal/argument-from-ignorance"] (text argues from absence
          of evidence) and ["informal/equivocation-candidate"] (one
          content word shared by sibling goals with otherwise-disjoint
          vocabulary).  [[]] when the pass ran with [~lints:false]. *)
}

val check :
  ?ruleset:Argus_gsn.Wellformed.ruleset ->
  ?budget:Argus_rt.Budget.t ->
  ?lints:bool ->
  Caseir.t ->
  result
(** [budget] governs only the circular-support walk, and the caller
    then owns reporting its exhaustion: when absent the walk runs under
    an internal {!Argus_fallacy.Informal.default_walk_fuel} budget whose
    exhaustion is reported in [informal] as an ["rt/budget-exhausted"]
    warning.  [lints] (default [true]) set to [false] skips the lints —
    and hence never touches the budget. *)

val lint :
  ?budget:Argus_rt.Budget.t -> Caseir.t -> Argus_core.Diagnostic.t list
(** The informal lints alone — byte-identical to {!check}'s
    [informal], without firing any [gsn.wf.*] counters or
    [gsn.wellformed*] spans, for callers that only lint. *)

(** {2 Per-unit entry points}

    The fused pass split into its independently recomputable units,
    for the incremental store (lib/store): each returns its findings
    in {!check}'s emission order, without firing the [gsn.wf.*]
    counters or spans.  Concatenating links, shape, then per-node
    findings in node order (resp. node lints in node order, then the
    walk) and applying {!assemble} reproduces {!check}
    byte-for-byte. *)

val link_findings :
  ?ruleset:Argus_gsn.Wellformed.ruleset ->
  Caseir.t ->
  Argus_core.Diagnostic.t list
(** All per-link findings, link order.  The only unit that reads the
    ruleset. *)

val shape_findings : Caseir.t -> Argus_core.Diagnostic.t list
(** The cycle witness and the root-count findings — the global graph
    shape. *)

val node_findings : Caseir.t -> int -> Argus_core.Diagnostic.t list
(** Node [i]'s well-formedness findings.  Reads only the node's
    payload, its support degree, its SupportedBy parents' universal
    flags, the evidence table's answer for its citation, its
    reachability bit and whether the case has roots. *)

val node_lint_findings : Caseir.t -> int -> Argus_core.Diagnostic.t list
(** Node [i]'s per-node lints (argument-from-ignorance, equivocation
    among its goal-like SupportedBy children, pairs in sibling order).
    Reads the node's payload and its goal-like children's content
    words. *)

val walk_findings :
  ?budget:Argus_rt.Budget.t -> Caseir.t -> Argus_core.Diagnostic.t list
(** The circular-support walk, with {!check}'s budget semantics
    (internal {!Argus_fallacy.Informal.default_walk_fuel} budget when
    absent, exhaustion reported in the result). *)

val assemble :
  wf:Argus_core.Diagnostic.t list ->
  informal:Argus_core.Diagnostic.t list ->
  result
(** The final stable sort {!check} applies; the inputs must be in
    {!check}'s emission order. *)

val check_modular :
  ?ruleset:Argus_gsn.Wellformed.ruleset ->
  ?budget:Argus_rt.Budget.t ->
  lints:bool ->
  Argus_gsn.Modular.t ->
  result
(** The modular checker compiled onto the IR: each module is interned
    once and runs one {!check} with [ruleset], [budget] and [lints];
    the cross-module rules come from {!Argus_gsn.Modular.check_with}.
    [informal] is {!lint} over each module concatenated in module
    order, one budget spent across all of them. *)

type cae_ir

val intern_cae : Argus_cae.Cae.t -> cae_ir

val check_cae : cae_ir -> Argus_core.Diagnostic.t list
(** The CAE well-formedness rules, codes under ["cae/"]:
    ["cae/dangling-link"], ["cae/claim-without-argument"],
    ["cae/multiple-arguments"], ["cae/empty-argument"],
    ["cae/evidence-not-leaf"], ["cae/bad-support"], ["cae/cycle"],
    ["cae/no-root"], ["cae/empty-text"]. *)
