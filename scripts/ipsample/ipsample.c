/* ipsample: an LD_PRELOAD instruction-pointer sampler for hosts without
 * perf or gdb.
 *
 *   cc -O2 -shared -fPIC -o ipsample.so ipsample.c
 *   PROF_OUT=/tmp/run.prof LD_PRELOAD=$PWD/ipsample.so target/release/risa-cli run ...
 *   python3 symbolize.py /tmp/run.prof
 *
 * The constructor arms ITIMER_REAL (ITIMER_PROF is tick-bound to ~250
 * samples/s on this kernel) at 250 us and the SIGALRM handler records the
 * interrupted RIP and the id of the thread it interrupted; the destructor
 * writes /proc/self/maps, a `--samples-- <main thread id>` line and one
 * `<hex address> <thread id>` per line to $PROF_OUT. Without PROF_OUT the
 * library does nothing. x86-64 Linux only.
 *
 * The timer is wall-clock and the signal is process-directed: the kernel
 * hands it to the main thread whenever that thread has it unblocked, asleep
 * or not. A main thread parked in a futex while other threads work is
 * therefore sampled *in the futex call* — time waiting, not kernel time —
 * which symbolize.py labels per thread.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 22) /* 17 minutes at 250 us */
#define PERIOD_US 250

static struct sample {
    unsigned long ip;
    long tid;
} *samples;
static volatile unsigned long count;

static void on_alarm(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    if (count < MAX_SAMPLES) {
        /* A raw system call: async-signal-safe, no TLS. */
        samples[count].tid = syscall(SYS_gettid);
        samples[count++].ip = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
    }
}

static void set_timer(long usec) {
    struct itimerval it = {{0, usec}, {0, usec}};
    setitimer(ITIMER_REAL, &it, NULL);
}

__attribute__((constructor)) static void ipsample_start(void) {
    if (!getenv("PROF_OUT"))
        return;
    /* Untouched pages of the buffer cost nothing. */
    samples = mmap(NULL, MAX_SAMPLES * sizeof *samples, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (samples == MAP_FAILED)
        return;
    struct sigaction sa = {0};
    sa.sa_sigaction = on_alarm;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGALRM, &sa, NULL);
    set_timer(PERIOD_US);
}

__attribute__((destructor)) static void ipsample_stop(void) {
    const char *path = getenv("PROF_OUT");
    if (!path || !samples || samples == MAP_FAILED)
        return;
    set_timer(0);
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    /* The main thread's id is the process id. */
    fprintf(out, "--samples-- %ld\n", (long)getpid());
    for (unsigned long i = 0; i < count; i++)
        fprintf(out, "%lx %ld\n", samples[i].ip, samples[i].tid);
    fclose(out);
}
