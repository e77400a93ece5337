(** Experiment VI.D — more reliably correct pattern instantiation.

    The paper: "we could measure and compare defect rates between
    volunteers who instantiate informal patterns and review them and
    volunteers that use a formalised pattern instantiation tool with
    parameter checking.  We could also measure whether the proposed
    mechanism speeds up or slows down argument creation."

    The tool arm is not a model: every trial's binding is fed to the
    {e real} {!Argus_patterns.Pattern.instantiate} checker, and "caught"
    means the checker actually returned an error.  Injected defects
    cover the classes the Matsuno papers discuss (omitted binding,
    type mismatch, out-of-range value, inconsistent manual replacement)
    plus one the paper predicts no checker can catch: a type-correct but
    semantically wrong value. *)

type defect =
  | Omitted_binding
  | Wrong_type
  | Out_of_range
  | Inconsistent_replacement  (** Only possible in the manual arm. *)
  | Semantically_wrong_value
      (** Type-correct but wrong; invisible to the checker. *)

type config = {
  seed : int;
  trials_per_arm : int;
  defect_rate : float;  (** P(a trial's instantiation has a defect). *)
  semantic_share : float;
      (** Share of defects that are semantically-wrong-value. *)
  p_review_catch : float;  (** Manual review hit rate on visible defects. *)
  p_review_catch_semantic : float;
  minutes_manual : float;  (** Median manual instantiation minutes. *)
  minutes_tool : float;  (** Median tool-assisted entry minutes. *)
  minutes_review : float;
  minutes_rework : float;  (** Cost of fixing a tool-caught defect. *)
}

val default_config : config

type arm_result = {
  trials : int;
  defects_injected : int;
  defects_caught : int;
  residual_defects : int;
  mean_minutes : float;
}

type result = {
  config : config;
  manual : arm_result;
  tool : arm_result;
  tool_checker_agreed : bool;
      (** The real checker flagged exactly the checkable defect classes
          (and passed the semantic ones) in every trial. *)
  residual_rate_manual : float;
  residual_rate_tool : float;
  time_test : Stats.t_test;  (** Tool vs manual trial minutes. *)
}

val run : config -> result
(** Deterministic in [config.seed]: each trial draws from a per-trial
    PRNG stream and counts merge in trial order. *)

val pp : Format.formatter -> result -> unit
