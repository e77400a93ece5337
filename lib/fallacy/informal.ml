module Term = Argus_logic.Term
module Program = Argus_prolog.Program

let desert_bank_program =
  {|% Figure 1: a flawed argument that passes formal validation.
is_a(desert_bank, bank).
adjacent(bank, river).
adjacent(X, Y) :- is_a(X, Z), adjacent(Z, Y).
|}

let desert_bank = Program.of_string_exn desert_bank_program

(* Roles of constants: every (predicate, argument index) position a
   constant occupies, across clause heads and bodies. *)
let constant_roles program =
  let roles = Hashtbl.create 32 in
  let note name role =
    let existing = Option.value ~default:[] (Hashtbl.find_opt roles name) in
    if not (List.mem role existing) then
      Hashtbl.replace roles name (role :: existing)
  in
  let scan_atom t =
    match t with
    | Term.App (pred, args) ->
        let pred = Argus_core.Symbol.name pred in
        List.iteri
          (fun i arg ->
            match arg with
            | Term.App (c, []) -> note (Argus_core.Symbol.name c) (pred, i)
            | Term.App _ | Term.Var _ -> ())
          args
    | Term.Var _ -> ()
  in
  List.iter
    (fun c ->
      scan_atom c.Program.head;
      List.iter scan_atom c.Program.body)
    program;
  roles

let equivocation_candidates program =
  let roles = constant_roles program in
  Hashtbl.fold
    (fun name rs acc -> if List.length rs >= 2 then name :: acc else acc)
    roles []
  |> List.sort String.compare

let ignorance_phrases =
  [
    "no evidence that";
    "no evidence of";
    "has never been observed";
    "have never been observed";
    "not been shown";
    "never been demonstrated";
    "absence of any report";
    "no counterexample";
  ]

(* One pass over the text, comparing phrases in place under ASCII case
   folding (the phrases are lower-case ASCII).  Only the phrases whose
   first letter matches the byte at an offset are tried there. *)
let phrases_by_first_byte =
  let t = Array.make 256 [] in
  List.iter
    (fun p ->
      List.iter
        (fun c -> t.(Char.code c) <- p :: t.(Char.code c))
        [ p.[0]; Char.uppercase_ascii p.[0] ])
    ignorance_phrases;
  t

let phrase_at text i phrase =
  let m = String.length phrase in
  i + m <= String.length text
  &&
  let rec go k =
    k >= m
    || Char.lowercase_ascii (String.unsafe_get text (i + k))
       = String.unsafe_get phrase k
       && go (k + 1)
  in
  go 0

let rec any_phrase_at text i = function
  | [] -> false
  | p :: ps -> phrase_at text i p || any_phrase_at text i ps

let argues_from_ignorance text =
  let n = String.length text in
  let rec go i =
    i < n
    && (any_phrase_at text i
          phrases_by_first_byte.(Char.code (String.unsafe_get text i))
       || go (i + 1))
  in
  go 0

(* The fuel of the internal budget the circular-support walk runs
   under when the caller passes none: path enumeration on a dense DAG
   is exponential and a lint need not be exhaustive. *)
let default_walk_fuel = 10_000
