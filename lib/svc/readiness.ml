external poll_read_stub : Unix.file_descr array -> int -> int -> int array
  = "argus_poll_read"

external nofile_raise_stub : int -> int = "argus_nofile_raise"

let nofile_raise want = nofile_raise_stub want

(* Dense array of registered fds plus an fd -> slot table: add appends,
   remove swaps the last entry into the vacated slot.  The array is
   passed to the poll stub as-is (fds are small ints on Unix), so a
   wait allocates nothing proportional to the registered set beyond the
   kernel call itself. *)
type t = {
  mutable fds : Unix.file_descr array;
  mutable n : int;
  slots : (Unix.file_descr, int) Hashtbl.t;
}

let create () =
  { fds = Array.make 64 Unix.stdin; n = 0; slots = Hashtbl.create 64 }

let registered t = t.n
let mem t fd = Hashtbl.mem t.slots fd

let add t fd =
  if not (Hashtbl.mem t.slots fd) then begin
    if t.n = Array.length t.fds then begin
      let bigger = Array.make (2 * t.n) Unix.stdin in
      Array.blit t.fds 0 bigger 0 t.n;
      t.fds <- bigger
    end;
    t.fds.(t.n) <- fd;
    Hashtbl.replace t.slots fd t.n;
    t.n <- t.n + 1
  end

let remove t fd =
  match Hashtbl.find_opt t.slots fd with
  | None -> ()
  | Some slot ->
      Hashtbl.remove t.slots fd;
      let last = t.n - 1 in
      if slot <> last then begin
        let moved = t.fds.(last) in
        t.fds.(slot) <- moved;
        Hashtbl.replace t.slots moved slot
      end;
      t.n <- last

let wait_poll t ~timeout_ms =
  let timeout =
    if timeout_ms < 0. then -1
    else if timeout_ms = 0. then 0
    else max 1 (int_of_float (Float.ceil timeout_ms))
  in
  let ready = poll_read_stub t.fds t.n timeout in
  (* Indices were computed against the array we passed; [t] is
     single-owner so nothing mutated it during the call. *)
  Array.fold_left (fun acc i -> t.fds.(i) :: acc) [] ready

let wait t ~timeout_ms =
  if t.n = 0 then begin
    (* Nothing registered: just sleep out the timeout (a signal still
       interrupts).  select with empty sets is the portable sleep; an
       infinite timeout sleeps in bounded chunks so the caller can
       still notice a stop flag. *)
    let secs =
      if timeout_ms < 0. then 3600. else max 0. (timeout_ms /. 1000.)
    in
    (try ignore (Unix.select [] [] [] secs)
     with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    []
  end
  else wait_poll t ~timeout_ms
