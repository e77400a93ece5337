(** Experiment VI.A — the ability to automatically identify formal
    fallacies.

    The paper's protocol: "one group of volunteers reviews an argument
    for informal fallacies only, the other for both informal and formal
    fallacies, and the experimenters measure time taken.  The number of
    formal fallacies missed in manual review can be counted."

    The simulation builds a corpus of arguments seeded with known formal
    fallacies (generated so that {!Argus_fallacy.Formal} provably
    detects them — the tool arm runs the {e real} detector) and known
    informal fallacies (drawn from the Greenwell corpus, which the
    detector provably passes).  Stochastic reviewer models fill the two
    human arms. *)

type config = {
  seed : int;
  subjects_per_arm : int;
  n_arguments : int;  (** Arguments each subject reviews. *)
  steps_per_argument : int;  (** Inference steps per argument. *)
  formal_seed_rate : float;  (** P(step carries a formal fallacy). *)
  informal_seed_rate : float;
  minutes_per_step : float;  (** Median review minutes per step. *)
  formal_duty_overhead : float;
      (** Multiplier on per-step time for the both-duties arm. *)
  p_informal_detect : float;  (** Human hit rate on informal fallacies. *)
  p_formal_detect_with_duty : float;
  p_formal_detect_incidental : float;
      (** Hit rate on formal fallacies when not looking for them. *)
}

val default_config : config

type arm_result = {
  mean_minutes : float;
  ci_minutes : float * float;
  formal_seeded : int;
  formal_found : int;
  informal_seeded : int;
  informal_found : int;
}

type reviewer_overlap = {
  first_only : int;  (** Instances only reviewer 1 found. *)
  second_only : int;
  both : int;
  neither : int;
}

type result = {
  config : config;
  informal_only : arm_result;
  both_duties : arm_result;
  tool_formal_found : int;  (** Real detector hits on the seeded corpus. *)
  tool_formal_seeded : int;
  tool_false_positives : int;
      (** Real detector hits on the informal (Greenwell-style) seeds —
          expected 0, the paper's Section V.B point. *)
  time_test : Stats.t_test;  (** Both-duties vs informal-only minutes. *)
  overlap : reviewer_overlap;
      (** Two independent reviewers over the 45 Greenwell instances —
          the Section V.C observation that "each overlooked some
          fallacies that the other flagged". *)
}

val run : config -> result
(** Deterministic in [config.seed]: each subject draws from a
    per-index PRNG stream, and tool-arm steps are pure checks summed
    in step order. *)

val pp : Format.formatter -> result -> unit
