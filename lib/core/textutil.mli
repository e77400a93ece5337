(** Plain-text utilities shared by the lints and the reading-audience
    experiment: tokenisation, normalisation, and a readability score.

    The equivocation lint needs word-level comparison of node texts; the
    Section VI.C simulation needs a per-argument reading-difficulty
    measure, for which we use the Flesch reading-ease formula with a
    heuristic syllable counter (exact syllabification is unnecessary —
    only the relative ordering of argument variants matters). *)

val words : string -> string list
(** Splits on non-alphanumeric characters; drops empty tokens.
    ["The thrust-reversers are inhibited"] gives
    [["The"; "thrust"; "reversers"; "are"; "inhibited"]]. *)

val fold_lower_words : (string -> 'a -> 'a) -> string -> 'a -> 'a
(** Folds over {!words} in order, each word lower-cased as it is
    extracted — one pass over the text, one copy per word. *)

val exists_lower_word : (string -> bool) -> string -> bool
(** Whether some word of {!words}, lower-cased, satisfies the
    predicate; stops at the first that does. *)

type word_set
(** A hashed set of words, for constant-time marker tests. *)

val word_set : string list -> word_set
val mem_word : word_set -> string -> bool

val normalise_word : string -> string
(** Lowercases and strips a trailing ['s] or [s] plural suffix of words
    longer than three characters — a deliberately light stemmer, enough
    to make ["Banks"] and ["bank"] compare equal in the lint. *)

val content_of_lower : string -> string option
(** The content form of one already lower-cased word: its
    {!normalise_word} form, or [None] for an English stop word. *)

val content_words : string -> string list
(** {!words}, normalised, with English stop words removed:
    {!fold_lower_words} through {!content_of_lower}. *)

val sentences : string -> string list
(** Splits on [.!?] boundaries; drops empty sentences. *)

val syllables : string -> int
(** Heuristic syllable count of one word (vowel-group counting with a
    silent-e adjustment); at least 1 for a non-empty word. *)

val flesch_reading_ease : string -> float
(** 206.835 - 1.015 (words/sentences) - 84.6 (syllables/words).
    Higher is easier.  Returns 100.0 for empty text. *)

val levenshtein : string -> string -> int
(** Edit distance, used by the pattern-instantiation defect classifier. *)

val contains_symbolic_notation : string -> bool
(** Whether the text contains characters or digraphs characteristic of
    symbolic logic: [=>], [->], [&], [|-], [¬], [∧], [∨], [→], [⇒],
    [∀], [∃], [(x)] variable-ish parenthesised terms such as
    [wcet(task_1, 250)].  Used to classify node text as formal or
    natural-language (survey research question 2).  One pass over the
    bytes, allocation-free. *)
