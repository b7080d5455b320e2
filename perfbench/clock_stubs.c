/* Host clock, memory and CPU calls the benchmark needs and the OCaml
   standard library does not offer: a monotonic clock (wall-clock
   adjustments must not leak into timings), the kernel's resident-set
   high-water mark for this process, and pinning the calling thread to
   the CPU it runs on. */

#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <sys/resource.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

CAMLprim value perfbench_monotonic_s(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}

/* ru_maxrss is in kilobytes on Linux. */
CAMLprim value perfbench_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return Val_long(0);
  return Val_long(ru.ru_maxrss);
}

/* Pin the calling thread, and so every thread and process it starts
   later, to the CPU it is running on.  Returns that CPU, or -1 when the
   kernel does not allow it (the thread then stays unpinned). */
CAMLprim value perfbench_pin_to_current_cpu(value unit)
{
  cpu_set_t set;
  int cpu = sched_getcpu();
  (void)unit;
  if (cpu < 0) return Val_long(-1);
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_long(-1);
  return Val_long(cpu);
}
