/* Reap one child and report its peak resident set size. The series
   workloads spawn one short-lived CLI process per job, which is gone
   before /proc/<pid>/status could be read; wait4 returns the high-water
   mark the kernel kept for exactly that child. */

#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* (exit code, peak RSS in KiB); the code is 128 + signal for a killed
   child and -1 when the wait itself failed. */
value ipdb_bench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  pid_t pid = Int_val(vpid), r;
  int status = 0, code;
  struct rusage ru;
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) code = -1;
  else if (WIFEXITED(status)) code = WEXITSTATUS(status);
  else if (WIFSIGNALED(status)) code = 128 + WTERMSIG(status);
  else code = -1;
  res = caml_alloc_tuple(2);
  Store_field(res, 0, Val_int(code));
  Store_field(res, 1, Val_long(r < 0 ? 0 : ru.ru_maxrss));
  CAMLreturn(res);
}
