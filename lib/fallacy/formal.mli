(** Detection of the formal fallacies.

    Section IV.A of the paper lists the eight formal fallacies of
    Damer's textbook: (1) begging the question, (2) incompatible
    premises, (3) contradiction between premise and conclusion,
    (4) denying the antecedent, (5) affirming the consequent, (6) false
    conversion, (7) undistributed middle term, and (8) illicit
    distribution of an end term.  This module detects all eight —
    1–5 over propositional arguments (via SAT and inference-shape
    analysis), 6–8 over categorical syllogisms (via distribution
    analysis) — which is precisely the mechanical check the surveyed
    formalisation proposals could deliver. *)

type finding =
  | Begging_the_question
      (** The conclusion is (equivalent to) one of the premises. *)
  | Incompatible_premises  (** The premises are jointly unsatisfiable. *)
  | Premise_conclusion_contradiction
      (** Some premise contradicts the conclusion. *)
  | Denying_the_antecedent
      (** [A -> B, ~A |- ~B] shape, not otherwise entailed. *)
  | Affirming_the_consequent  (** [A -> B, B |- A] shape. *)
  | False_conversion
      (** Inferring the converse of an A- or O-form proposition. *)
  | Undistributed_middle
  | Illicit_distribution
      (** Illicit major or minor (an end term distributed in the
          conclusion but not in its premise). *)

(** A propositional argument: premises and a conclusion. *)
type propositional = {
  premises : Argus_logic.Prop.t list;
  conclusion : Argus_logic.Prop.t;
}

(** A single-premise conversion inference over a categorical
    proposition. *)
type conversion = {
  from : Argus_logic.Syllogism.proposition;
  to_ : Argus_logic.Syllogism.proposition;
}

val check_propositional :
  ?budget:Argus_rt.Budget.t -> propositional -> finding list
(** Fallacies 1–5.  The conditional-shape fallacies (4, 5) are only
    reported when the argument is {e not} valid — [A -> B, B, B -> A
    |- A] affirms nothing.  Begging the question is reported when the
    conclusion is syntactically equal or SAT-equivalent to a premise.
    The budget (default unlimited) governs the underlying SAT queries;
    when it is exhausted the findings may be incomplete (check
    {!Argus_rt.Budget.exhausted}). *)

val is_valid_propositional :
  ?budget:Argus_rt.Budget.t -> propositional -> bool
(** Premises entail the conclusion. *)

val check_many :
  ?budget:Argus_rt.Budget.t -> propositional list -> finding list list
(** [check_propositional] over every argument, findings in input
    order.  Only a limited budget is threaded through; an unlimited
    one is treated as no budget. *)

val check_syllogism : Argus_logic.Syllogism.t -> finding list
(** Fallacies 7 and 8 (plus nothing else; the non-distribution
    syllogistic rules are reported by {!Argus_logic.Syllogism.violations}
    but are not among Damer's eight). *)

val check_conversion : conversion -> finding list
(** Fallacy 6: the inference from a proposition to its converse is
    false conversion when the form does not convert simply (A and O). *)

val finding_to_string : finding -> string
val all_findings : finding list
