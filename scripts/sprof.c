/*
 * A sampling profiler that needs no PMU: loaded with LD_PRELOAD, it arms
 * only in a process whose executable is named `rwled`, samples the
 * interrupted program counter on every SIGPROF of ITIMER_PROF (process
 * CPU time, so every worker thread is sampled), and at exit writes the
 * samples and the process's mappings to `$SPROF_DIR/<pid>.txt`:
 *
 *     pc <hex>          one line per sample
 *     maps              then /proc/self/maps, verbatim
 *
 * `scripts/profile.sh` builds it and symbolizes the file. The signal
 * handler only stores into a preallocated buffer, so it allocates
 * nothing and takes no lock. SIGPROF perturbs what it measures: its
 * figures say where the time goes, not how much a change saves.
 */
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

/* Room for about 70 minutes of one busy CPU at a 4 ms tick. */
#define CAP (1 << 20)

static uintptr_t *samples;
static volatile long taken;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < CAP)
        samples[i] = (uintptr_t)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

static void dump(void) {
    struct itimerval off = {0};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *dir = getenv("SPROF_DIR");
    char path[4096];
    snprintf(path, sizeof path, "%s/%d.txt", dir ? dir : ".", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    long n = taken < CAP ? taken : CAP;
    for (long i = 0; i < n; i++)
        fprintf(out, "pc %lx\n", (unsigned long)samples[i]);
    fputs("maps\n", out);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char buf[8192];
        size_t got;
        while ((got = fread(buf, 1, sizeof buf, maps)) > 0)
            fwrite(buf, 1, got, out);
        fclose(maps);
    }
    fclose(out);
}

__attribute__((constructor)) static void arm(void) {
    char exe[4096];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (len <= 0)
        return;
    exe[len] = '\0';
    const char *name = strrchr(exe, '/');
    if (strcmp(name ? name + 1 : exe, "rwled") != 0)
        return;
    samples = mmap(NULL, CAP * sizeof *samples, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (samples == MAP_FAILED)
        return;
    struct sigaction act;
    memset(&act, 0, sizeof act);
    act.sa_sigaction = on_prof;
    act.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&act.sa_mask);
    sigaction(SIGPROF, &act, NULL);
    atexit(dump);
    /* Asks for 1 ms; the kernel delivers at its own tick. */
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}
