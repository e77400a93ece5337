(** List-based oracles for the one-pass text scanners in
    {!Argus_core.Textutil}, {!Argus_gsn.Node}, {!Argus_gsn.Wellformed},
    {!Argus_fallacy.Informal} and {!Argus_ir.Caseir.derive}.  Each
    function here must agree with its production namesake on every
    input. *)

val words : string -> string list
val content_words : string -> string list
val contains_substring : string -> string -> bool
val contains_symbolic_notation : string -> bool
val contains_ci : string -> string -> bool
val ignorance_phrases : string list
val argues_from_ignorance : string -> bool
val claims_universally : string -> bool
val looks_propositional : string -> bool

val derive : Argus_gsn.Node.t -> Argus_ir.Caseir.derived
(** The per-payload record composed from the predicates above. *)
