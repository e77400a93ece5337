(** Experiment VI.B — the effort of formalisation.

    The paper: "This cost could be measured by observing volunteers
    performing the formalisation task and measuring the time needed.
    (The study design would have to account for learning effects and
    for the impact of formal methods expertise.)"

    Each simulated subject formalises a sequence of informal arguments
    into symbolic logic.  Per-node formalisation time follows a
    lognormal baseline, reduced by formal-methods expertise and by a
    power-law practice curve over successive tasks — the two covariates
    the paper says the design must account for. *)

type config = {
  seed : int;
  n_subjects : int;
  n_tasks : int;  (** Arguments per subject, in sequence. *)
  nodes_per_argument : int;
  minutes_per_node : float;  (** Median for a novice's first task. *)
  expertise_saving : float;
      (** Fractional time saved at expertise 1.0 (e.g. 0.45). *)
  learning_exponent : float;
      (** Power-law practice curve exponent (e.g. 0.25). *)
}

val default_config : config

type result = {
  config : config;
  mean_minutes_first_task : float;
  mean_minutes_last_task : float;
  learning_ratio : float;  (** last / first; < 1 shows learning. *)
  novice_minutes_per_node : float;  (** Expertise below median. *)
  expert_minutes_per_node : float;
  expertise_test : Stats.t_test;  (** Novice vs expert per-node times. *)
  minutes_for_100_node_argument : float;
      (** Projected cost of formalising a mid-sized case, post-practice,
          averaged over the subject pool. *)
}

val run : config -> result
(** Deterministic in [config.seed]: each subject's trajectory draws
    from a per-subject PRNG stream. *)

val pp : Format.formatter -> result -> unit
