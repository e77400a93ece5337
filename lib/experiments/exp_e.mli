(** Experiment VI.E — complication of evidence sufficiency judgments.

    The paper compares two procedures for judging what rides on an item
    of evidence: tracing paths in a graphical argument (GSN's claimed
    strength) versus Rushby's proposal to "assess impact by eliminating
    the corresponding formal premise and rerunning the proof checker".
    It also notes what Rushby leaves open — how to judge evidence whose
    failure is {e a matter of degree} — and proposes measuring time and
    inter-assessor agreement: "if many assessors report similar values,
    they might be right or wrong, but if they report very different
    values, at least some must be wrong."

    Both procedures are implemented for real here:
    {!Argus_confidence.Confidence.impact_by_tracing} over a specimen GSN
    case, and {!Argus_confidence.Confidence.probe_premise} over its
    formalised counterpart.  The assessor model adds per-procedure
    reading noise; ground truth is the confidence-propagation
    sensitivity of each evidence item, so the harness can report
    accuracy as well as agreement — including the probing procedure's
    characteristic failure on matter-of-degree evidence (a binary probe
    reads a partial dependence as total). *)

type config = {
  seed : int;
  n_assessors : int;
  minutes_per_traced_node : float;
  minutes_per_probe : float;
  probe_setup_minutes : float;
  tracing_noise_sd : float;  (** Noise on perceived impact, tracing. *)
  probing_noise_sd : float;
}

val default_config : config

type category = Negligible | Moderate | Critical

type procedure_result = {
  mean_minutes : float;
  kappa : float;  (** Fleiss' kappa across assessors over evidence items. *)
  mean_abs_error : float;
      (** Mean |perceived - true| impact, against the
          confidence-propagation ground truth. *)
}

type result = {
  config : config;
  n_evidence_items : int;
  ground_truth : (string * float) list;
      (** Evidence id to true sensitivity. *)
  tracing : procedure_result;
  probing : procedure_result;
}

val categorise : float -> category
val run : config -> result
(** Deterministic in [config.seed]: each assessor draws from a
    per-index PRNG stream of the procedure's generator. *)

val pp : Format.formatter -> result -> unit
