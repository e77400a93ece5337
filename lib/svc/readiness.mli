(** Readiness engine for the acceptor: "which of these descriptors can
    be read, within this deadline?".

    {!wait} drives [poll(2)] through a C stub — no [FD_SETSIZE]
    ceiling, so the server's connection cap is bounded by
    [RLIMIT_NOFILE] and config, not by the 1024-slot [fd_set] that made
    the old [select] loop raise once a descriptor's {i number} crossed
    1024.  The server needs a POSIX host anyway (it ignores [SIGPIPE]),
    so there is no fallback backend; test/oracle keeps a [select]-based
    wait that test/svc checks this engine against.

    The registered set is maintained incrementally — {!add} and
    {!remove} are O(1) (dense array + slot table, remove swaps with the
    last entry) — so a wait over n descriptors costs one O(n) kernel
    call and nothing more per iteration.  The engine is single-owner:
    the acceptor registers, waits, and dispatches; worker domains never
    touch it (they wake the acceptor through its self-pipe instead). *)

type t

val create : unit -> t

val add : t -> Unix.file_descr -> unit
(** Register a descriptor for readability.  Adding a registered
    descriptor is a no-op. *)

val remove : t -> Unix.file_descr -> unit
(** Deregister; unknown descriptors are a no-op. *)

val mem : t -> Unix.file_descr -> bool

val registered : t -> int
(** Number of registered descriptors; O(1). *)

val wait : t -> timeout_ms:float -> Unix.file_descr list
(** Block until at least one registered descriptor is readable (or has
    hung up — the caller must be woken to reap), the timeout expires,
    or a signal lands.  [timeout_ms < 0.] blocks indefinitely.  Returns
    the readable descriptors — [[]] on timeout or [EINTR] (the caller
    recomputes its deadlines and re-enters). *)

val nofile_raise : int -> int
(** [nofile_raise want] raises the process's soft [RLIMIT_NOFILE]
    toward [want] (clamped at the hard limit) and returns the resulting
    soft limit.  Used by the capacity tests; never raises. *)
