/* The sampling half of scripts/profile.sh, preloaded into the profiled
 * process: every 1 ms of the process's CPU time (ITIMER_PROF, delivered
 * to whichever thread is running) it records the interrupted instruction
 * pointer. At exit it writes /proc/self/maps, a `samples N` line and one
 * hex address per kept sample to $SAMPLER_OUT. Past MAX_SAMPLES samples
 * are counted, not kept.
 *
 *   cc -O2 -shared -fPIC -o sampler.so scripts/sampler.c
 *   SAMPLER_OUT=run.samples LD_PRELOAD=$PWD/sampler.so ./program
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static unsigned long samples[MAX_SAMPLES];
static atomic_ulong taken;

static void on_tick(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    unsigned long i = atomic_fetch_add(&taken, 1);
    if (i < MAX_SAMPLES)
        samples[i] = ((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction action = {0};
    action.sa_sigaction = on_tick;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &action, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SAMPLER_OUT");
    FILE *out = fopen(path ? path : "sampler.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) {
        perror("sampler");
        return;
    }
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    fclose(maps);
    unsigned long n = atomic_load(&taken);
    fprintf(out, "samples %lu\n", n);
    for (unsigned long i = 0; i < n && i < MAX_SAMPLES; i++)
        fprintf(out, "%lx\n", samples[i]);
    fclose(out);
}
