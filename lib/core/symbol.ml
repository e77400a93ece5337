type t = int

(* name -> handle, and handle -> name.  The reverse table is a growable
   array so [name] is an O(1) load.  Interning mutates both under a
   mutex so DSL parsing inside pool workers is safe; [name] reads the
   array without the lock — a symbol handed to another domain is always
   published through a synchronising channel (a domain join, or the
   server's request queue), which makes its entry visible. *)
let table : (string, int) Hashtbl.t = Hashtbl.create 256
let names : string array ref = ref (Array.make 256 "")
let next = ref 0
let mu = Mutex.create ()

let intern s =
  Mutex.protect mu (fun () ->
      match Hashtbl.find_opt table s with
      | Some i -> i
      | None ->
          let i = !next in
          incr next;
          let cap = Array.length !names in
          if i >= cap then begin
            let bigger = Array.make (2 * cap) "" in
            Array.blit !names 0 bigger 0 cap;
            names := bigger
          end;
          !names.(i) <- s;
          Hashtbl.add table s i;
          i)

let name i = !names.(i)
let equal (a : int) (b : int) = a = b
let compare (a : int) (b : int) = Stdlib.compare a b
let hash (i : int) = i
let count () = !next
let pp ppf i = Format.pp_print_string ppf (name i)
