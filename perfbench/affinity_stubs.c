/* sched_setaffinity for the benchmark: pin the generator and the
   server to disjoint CPUs so the scheduler cannot stack them. */
#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

value perfbench_pin(value pid, value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(Int_val(pid), sizeof set, &set) == 0);
}

value perfbench_allowed_cpus(value unit)
{
  cpu_set_t set;
  int i, n = 0, first = -1, second = -1;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  for (i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) {
      if (n == 0) first = i; else if (n == 1) second = i;
      n++;
    }
  /* two lowest allowed CPUs packed as first * 4096 + second, or -1 */
  return Val_int(n >= 2 ? first * 4096 + second : -1);
}
