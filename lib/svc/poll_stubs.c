/* poll(2) binding for the readiness engine, plus an RLIMIT_NOFILE
 * helper for the >FD_SETSIZE capacity tests.
 *
 * The interface is deliberately tiny: the OCaml side keeps a dense
 * int array of file descriptors and asks "which indices are ready to
 * read within this timeout?".  poll is stateless — the fd set is
 * passed on every call — so there is no kernel-side registration to
 * keep in sync, and the engine's add/remove stay pure OCaml. */

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/threads.h>
#include <caml/unixsupport.h>

#include <errno.h>
#include <poll.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>

/* argus_poll_read fds nfds timeout_ms -> ready index array.
 *
 * [fds] is an int array; only the first [nfds] entries are live.  A
 * negative timeout blocks indefinitely.  Readiness means POLLIN,
 * POLLHUP or POLLERR — hang-ups must wake the acceptor so it can reap.
 * EINTR returns the empty array (the caller recomputes deadlines and
 * re-enters); any other error raises Unix_error. */
CAMLprim value argus_poll_read(value v_fds, value v_nfds, value v_timeout)
{
  CAMLparam3(v_fds, v_nfds, v_timeout);
  CAMLlocal1(v_ready);
  int nfds = Int_val(v_nfds);
  int timeout = Int_val(v_timeout);
  struct pollfd *pfds;
  int i, rc, nready;

  if (nfds < 0) caml_invalid_argument("argus_poll_read: negative nfds");
  pfds = caml_stat_alloc(sizeof(struct pollfd) * (nfds > 0 ? nfds : 1));
  for (i = 0; i < nfds; i++) {
    pfds[i].fd = Int_val(Field(v_fds, i));
    pfds[i].events = POLLIN;
    pfds[i].revents = 0;
  }

  caml_release_runtime_system();
  rc = poll(pfds, (nfds_t)nfds, timeout);
  caml_acquire_runtime_system();

  if (rc < 0) {
    int err = errno;
    caml_stat_free(pfds);
    if (err == EINTR) {
      v_ready = caml_alloc_tuple(0);
      CAMLreturn(v_ready);
    }
    unix_error(err, "poll", Nothing);
  }

  nready = 0;
  for (i = 0; i < nfds; i++)
    if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) nready++;
  v_ready = caml_alloc_tuple(nready);
  nready = 0;
  for (i = 0; i < nfds; i++)
    if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR))
      Store_field(v_ready, nready++, Val_int(i));
  caml_stat_free(pfds);
  CAMLreturn(v_ready);
}

/* argus_nofile_raise want -> effective soft limit.
 *
 * Raise the soft RLIMIT_NOFILE toward [want] (clamped to the hard
 * limit, which an unprivileged process may always do) and return the
 * resulting soft limit.  The capacity tests use this so ">512
 * concurrent connections" holds even under the 1024-fd default of
 * stock CI runners.  Never raises: on any failure it just reports the
 * current soft limit. */
CAMLprim value argus_nofile_raise(value v_want)
{
  struct rlimit rl;
  rlim_t want = (rlim_t)Long_val(v_want);
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return Val_long(1024);
  if (rl.rlim_cur < want) {
    rlim_t target = want;
    if (rl.rlim_max != RLIM_INFINITY && target > rl.rlim_max)
      target = rl.rlim_max;
    if (target > rl.rlim_cur) {
      struct rlimit nrl = rl;
      nrl.rlim_cur = target;
      if (setrlimit(RLIMIT_NOFILE, &nrl) == 0) rl.rlim_cur = target;
    }
  }
  if (rl.rlim_cur == RLIM_INFINITY) return Val_long(1 << 20);
  return Val_long((long)rl.rlim_cur);
}
