(** Confidence propagation and evidence-sufficiency analysis.

    Two pieces of machinery the paper discusses:

    {b Confidence propagation} — the "BBN modelling" style assessment
    the paper cites when warning that an asserted rule can artificially
    raise mechanically-assessed confidence.  {!assess} propagates
    evidence trust up the argument: solutions carry their evidence's
    trust; a strategy combines its subgoals conjunctively (noisy-AND,
    i.e. product); a goal with several supporters combines them
    disjunctively (noisy-OR).  The numbers are not calibrated
    probabilities — the paper is explicit that no proposed mechanism "is
    known to be adequate in all cases" — but the machinery suffices to
    run the Section VI.E experiment.

    {b Evidence-sufficiency judgment procedures} — the two procedures
    Section VI.E compares: GSN {e path tracing} ({!impact_by_tracing}:
    which claims sit above this evidence?) and Rushby's {e what-if
    probing} ({!probe_premise}: retract a premise, re-run the checker,
    see whether the conclusion still follows). *)

type graph = {
  nodes : Argus_gsn.Node.t array;
      (** Entities [0 .. Array.length nodes - 1] are nodes; higher
          indices are dangling link endpoints. *)
  n_entities : int;
  sup_off : int array;  (** CSR offsets, length [n_entities + 1]. *)
  sup : int array;  (** SupportedBy targets, link order per entity. *)
  evidence : Argus_core.Id.t -> Argus_core.Evidence.t option;
      (** Evidence lookup for solutions. *)
}
(** A case as flat arrays — the shape {!Argus_ir.Caseir} already
    holds, so the store scores its interned cases without rebuilding
    anything. *)

val score_root :
  trust:(Argus_core.Evidence.t -> float) -> graph -> int -> float
(** [score_root ~trust g root] is the confidence {!root_confidence}
    gives entity [root] when [root] is the structure's first root: the
    one kernel {!assess} and {!root_confidence} also run, stopped once
    [root] is scored. *)

val assess :
  trust:(Argus_core.Evidence.t -> float) ->
  Argus_gsn.Structure.t ->
  float Argus_core.Id.Map.t
(** Confidence per node id, in [0,1].  Leaf goals with no support get
    0; solutions citing unregistered evidence get 0; undeveloped nodes
    get 0; contextual nodes are not scored.  Cycles are cut at repeat
    visits (scored 0 on the back edge). *)

val root_confidence :
  trust:(Argus_core.Evidence.t -> float) -> Argus_gsn.Structure.t -> float
(** Confidence of the (first) root, 0 for an empty structure. *)

val impact_by_tracing :
  Argus_gsn.Structure.t -> Argus_core.Id.t -> Argus_core.Id.t list
(** [impact_by_tracing s evidence_id]: every goal or strategy on a path
    from a solution citing that evidence up to a root — the set of
    claims whose support the assessor must reconsider.  Order:
    discovery order from the citing solutions upward. *)

val sensitivity :
  trust:(Argus_core.Evidence.t -> float) ->
  Argus_gsn.Structure.t ->
  Argus_core.Id.t ->
  float
(** Drop in root confidence when the given evidence item's trust is
    forced to zero — a numeric evidence-sufficiency measure. *)

val probe_premise :
  ?budget:Argus_rt.Budget.t ->
  Argus_logic.Natded.checked ->
  Argus_logic.Prop.t ->
  bool
(** Rushby's what-if: [probe_premise checked p] is whether the checked
    conclusion still follows (by SAT entailment) from the premises with
    [p] removed.  [false] means the premise is load-bearing.  The
    budget (default unlimited) governs the SAT queries; on exhaustion
    treat the answer as unknown (check {!Argus_rt.Budget.exhausted}). *)

val load_bearing_premises :
  ?budget:Argus_rt.Budget.t ->
  Argus_logic.Natded.checked ->
  Argus_logic.Prop.t list
(** Premises whose removal breaks the conclusion. *)

val probe_counterexample :
  ?budget:Argus_rt.Budget.t ->
  Argus_logic.Natded.checked ->
  Argus_logic.Prop.t ->
  (string * bool) list option
(** The other half of Rushby's what-if exploration: when retracting the
    premise breaks the conclusion, a countermodel — a valuation
    satisfying the remaining premises but not the conclusion — that the
    evaluator can "inspect".  [None] when the conclusion survives the
    retraction. *)
