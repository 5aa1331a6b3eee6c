/* CPU affinity for the benchmark (see perfbench.ml): pinning the calling
   thread to one CPU at a time, and a rotator thread that moves a thread
   round the allowed CPUs on a fixed period. CPUs are given as a bit mask
   of CPUs 0 to 61. */

#define _GNU_SOURCE
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <caml/fail.h>
#include <caml/mlvalues.h>

#define MAX_CPU 62

/* The CPUs the calling thread may run on. */
value perfbench_get_cpus(value unit)
{
  cpu_set_t set;
  intnat mask = 0;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    caml_failwith("sched_getaffinity");
  for (int i = 0; i < MAX_CPU; i++)
    if (CPU_ISSET(i, &set)) mask |= (intnat)1 << i;
  return Val_long(mask);
}

/* Let the calling thread run only on the CPUs of [mask]. */
value perfbench_set_cpus(value mask)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int i = 0; i < MAX_CPU; i++)
    if (Long_val(mask) & ((intnat)1 << i)) CPU_SET(i, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0)
    caml_failwith("sched_setaffinity");
  return Val_unit;
}

static pthread_t rot_thread;
static int rot_running;
static int rot_stop;
static pid_t rot_tid;
static cpu_set_t rot_all;
static int rot_cpus[MAX_CPU];
static int rot_n;
static struct timespec rot_period;

static void *rot_main(void *arg)
{
  (void)arg;
  for (int i = 0; !__atomic_load_n(&rot_stop, __ATOMIC_ACQUIRE);
       i = (i + 1) % rot_n) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(rot_cpus[i], &one);
    if (sched_setaffinity(rot_tid, sizeof one, &one) != 0) break;
    nanosleep(&rot_period, NULL);
  }
  sched_setaffinity(rot_tid, sizeof rot_all, &rot_all);
  return NULL;
}

/* Move the calling thread to the next allowed CPU every [period] seconds
   until [perfbench_rotate_stop]. Nothing happens with one allowed CPU. */
value perfbench_rotate_start(value period)
{
  double p = Double_val(period);
  if (rot_running) caml_failwith("rotate_start: already rotating");
  if (sched_getaffinity(0, sizeof rot_all, &rot_all) != 0)
    caml_failwith("sched_getaffinity");
  rot_n = 0;
  for (int i = 0; i < MAX_CPU; i++)
    if (CPU_ISSET(i, &rot_all)) rot_cpus[rot_n++] = i;
  if (rot_n < 2) return Val_unit;
  rot_tid = (pid_t)syscall(SYS_gettid);
  rot_period.tv_sec = (time_t)p;
  rot_period.tv_nsec = (long)((p - (double)rot_period.tv_sec) * 1e9);
  __atomic_store_n(&rot_stop, 0, __ATOMIC_RELEASE);
  if (pthread_create(&rot_thread, NULL, rot_main, NULL) != 0)
    caml_failwith("pthread_create");
  rot_running = 1;
  return Val_unit;
}

/* Stop the rotator and give the thread back all the CPUs it had. */
value perfbench_rotate_stop(value unit)
{
  (void)unit;
  if (!rot_running) return Val_unit;
  __atomic_store_n(&rot_stop, 1, __ATOMIC_RELEASE);
  pthread_join(rot_thread, NULL);
  rot_running = 0;
  return Val_unit;
}
