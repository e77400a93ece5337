(** The [select(2)] readiness wait, the differential oracle for
    {!Argus_svc.Readiness.wait}: the portable wait the engine's
    [poll(2)] stub replaced, with [select]'s [FD_SETSIZE] ceiling. *)

val wait : Unix.file_descr list -> timeout_ms:float -> Unix.file_descr list
(** The descriptors of the list that are readable (or hung up) within
    [timeout_ms] — [timeout_ms < 0.] blocks indefinitely; [[]] on
    timeout or [EINTR]. *)
