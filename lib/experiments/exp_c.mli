(** Experiment VI.C — restriction of the reading audience.

    The paper: "we could experimentally measure reading speed and
    comprehension, using an informal version of the specimen argument
    as a control.  Subjects should be selected from the backgrounds
    that might be expected of an argument reader.  A questionnaire
    should be used to collect information about each subject's
    background and training."

    Subjects are drawn per {!Argus_core.Lifecycle.role}; each role's
    probability of fluency in symbolic logic comes from
    {!Argus_core.Lifecycle.logic_literacy} (software engineers learn
    formal logic at university; managers and mechanical engineers not
    necessarily).  Every subject reads an informal and a formal version
    of the same specimen argument; the harness reports per-role reading
    time and comprehension for both versions. *)

type config = {
  seed : int;
  subjects_per_role : int;
  informal_words : int;  (** Length of the informal specimen. *)
  formal_words : int;
      (** Prose remaining in the formal version (symbol definitions,
          connective text). *)
  formal_formula_symbols : int;  (** Symbols to be decoded. *)
  base_wpm : float;  (** Mean reading speed, words per minute. *)
  literate_symbol_spm : float;
      (** Symbols per minute for a logic-fluent reader. *)
  illiterate_symbol_spm : float;
  base_comprehension : float;  (** Informal-version quiz score mean. *)
  literate_formal_comprehension : float;
  illiterate_formal_comprehension : float;
}

val default_config : config

type role_result = {
  role : Argus_core.Lifecycle.role;
  n_literate : int;
  n_subjects : int;
  informal_minutes : float;
  formal_minutes : float;
  informal_comprehension : float;
  formal_comprehension : float;
}

type result = {
  config : config;
  per_role : role_result list;
  comprehension_gap_vs_literacy : (float * float) list;
      (** Per role: (logic-literacy parameter, formal-informal
          comprehension gap) — the correlation the study would plot. *)
  gap_literacy_correlation : float;
      (** Pearson r of the pairs above; strongly negative when the gap
          shrinks with literacy, the audience-restriction signature. *)
}

val run : config -> result
(** Deterministic in [config.seed]: each subject draws from a
    per-index PRNG stream of their role's generator. *)

val pp : Format.formatter -> result -> unit
