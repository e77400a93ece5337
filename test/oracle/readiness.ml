let wait fds ~timeout_ms =
  let timeout = if timeout_ms < 0. then -1. else timeout_ms /. 1000. in
  match Unix.select fds [] [] timeout with
  | readable, _, _ -> readable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
