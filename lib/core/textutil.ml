let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

(* The one tokenizer: a word is a maximal run of ASCII alphanumerics.
   [word_start s i] skips to the first word byte at or after [i];
   [word_stop s i] to the first non-word byte. *)
let rec word_start s i =
  if i < String.length s && not (is_alnum (String.unsafe_get s i)) then
    word_start s (i + 1)
  else i

let rec word_stop s i =
  if i < String.length s && is_alnum (String.unsafe_get s i) then
    word_stop s (i + 1)
  else i

let fold_spans f s acc =
  let n = String.length s in
  let rec go i acc =
    let i = word_start s i in
    if i >= n then acc
    else
      let j = word_stop s i in
      go j (f s i j acc)
  in
  go 0 acc

(* [s.[i..j-1]], lower-cased in the one copy that extracts it. *)
let lower_sub s i j =
  let b = Bytes.create (j - i) in
  for k = 0 to j - i - 1 do
    Bytes.unsafe_set b k (Char.lowercase_ascii (String.unsafe_get s (i + k)))
  done;
  Bytes.unsafe_to_string b

let words s =
  List.rev (fold_spans (fun s i j acc -> String.sub s i (j - i) :: acc) s [])

let fold_lower_words f s acc =
  fold_spans (fun s i j acc -> f (lower_sub s i j) acc) s acc

let exists_lower_word p s =
  let n = String.length s in
  let rec go i =
    let i = word_start s i in
    i < n
    &&
    let j = word_stop s i in
    p (lower_sub s i j) || go j
  in
  go 0

module Word_tbl = Hashtbl.Make (String)

type word_set = unit Word_tbl.t

let word_set words =
  let t = Word_tbl.create (2 * List.length words) in
  List.iter (fun w -> Word_tbl.replace t w ()) words;
  t

let mem_word = Word_tbl.mem

(* The plural strip on an already lower-cased word. *)
let strip_plural w =
  let n = String.length w in
  if n > 3 && w.[n - 1] = 's' && w.[n - 2] <> 's' then String.sub w 0 (n - 1)
  else w

let normalise_word w = strip_plural (String.lowercase_ascii w)

let stop_words =
  [
    "a"; "an"; "the"; "is"; "are"; "was"; "were"; "be"; "been"; "being";
    "and"; "or"; "not"; "no"; "of"; "to"; "in"; "on"; "at"; "by"; "for";
    "with"; "from"; "that"; "this"; "these"; "those"; "it"; "its"; "as";
    "all"; "any"; "each"; "when"; "if"; "then"; "than"; "so"; "such";
    "will"; "shall"; "can"; "cannot"; "must"; "may"; "might"; "do"; "doe";
    "ha"; "has"; "have"; "had"; "which"; "who"; "whom"; "what"; "where";
  ]

let stop_set = word_set stop_words

let content_of_lower w =
  let w = strip_plural w in
  if mem_word stop_set w then None else Some w

let content_words s =
  List.rev
    (fold_lower_words
       (fun w acc ->
         match content_of_lower w with Some c -> c :: acc | None -> acc)
       s [])

let sentences s =
  let out = ref [] in
  let buf = Buffer.create 64 in
  let flush () =
    let t = String.trim (Buffer.contents buf) in
    if t <> "" then out := t :: !out;
    Buffer.clear buf
  in
  String.iter
    (fun c ->
      match c with '.' | '!' | '?' -> flush () | c -> Buffer.add_char buf c)
    s;
  flush ();
  List.rev !out

let is_vowel c =
  match Char.lowercase_ascii c with
  | 'a' | 'e' | 'i' | 'o' | 'u' | 'y' -> true
  | _ -> false

let syllables w =
  let n = String.length w in
  if n = 0 then 0
  else begin
    let count = ref 0 in
    let prev_vowel = ref false in
    String.iter
      (fun c ->
        let v = is_vowel c in
        if v && not !prev_vowel then incr count;
        prev_vowel := v)
      w;
    (* A final silent 'e' usually does not add a syllable. *)
    if n > 2 && Char.lowercase_ascii w.[n - 1] = 'e' && not (is_vowel w.[n - 2])
    then decr count;
    max 1 !count
  end

let flesch_reading_ease text =
  let ws = words text in
  let ss = sentences text in
  match (ws, ss) with
  | [], _ | _, [] -> 100.0
  | _ ->
      let nw = float_of_int (List.length ws) in
      let ns = float_of_int (List.length ss) in
      let syl =
        float_of_int (List.fold_left (fun acc w -> acc + syllables w) 0 ws)
      in
      206.835 -. (1.015 *. (nw /. ns)) -. (84.6 *. (syl /. nw))

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let prev = Array.init (lb + 1) Fun.id in
    let curr = Array.make (lb + 1) 0 in
    for i = 1 to la do
      curr.(0) <- i;
      for j = 1 to lb do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        curr.(j) <-
          min (min (curr.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit curr 0 prev 0 (lb + 1)
    done;
    prev.(lb)
  end

(* One allocation-free pass over the bytes.  The needles: the ASCII
   digraphs [=>], [->] (which also covers [<->]), [|-], [:-], [/\] and
   [\/]; [&]; the UTF-8 encodings of [¬] (C2 AC), [∧] [∨] [∀] [∃]
   (E2 88 A7/A8/80/83), [→] (E2 86 92) and [⇒] (E2 87 92); and an
   applied-term shape like [wcet(task_1, 250)] — an identifier byte
   directly followed by an opening parenthesis. *)
let contains_symbolic_notation s =
  let n = String.length s in
  (* Byte [i], or NUL past the end — no needle continues with NUL. *)
  let at i = if i < n then String.unsafe_get s i else '\000' in
  let rec go i =
    i < n
    && ((match String.unsafe_get s i with
        | '&' -> true
        | '=' | '-' -> at (i + 1) = '>'
        | '|' | ':' -> at (i + 1) = '-'
        | '/' -> at (i + 1) = '\\'
        | '\\' -> at (i + 1) = '/'
        | '\xc2' -> at (i + 1) = '\xac'
        | '\xe2' -> (
            match (at (i + 1), at (i + 2)) with
            | '\x88', ('\xa7' | '\xa8' | '\x80' | '\x83')
            | ('\x86' | '\x87'), '\x92' ->
                true
            | _ -> false)
        | '(' ->
            i > 0
            &&
            let p = String.unsafe_get s (i - 1) in
            is_alnum p || p = '_'
        | _ -> false)
       || go (i + 1))
  in
  go 0
