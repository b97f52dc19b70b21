/**
 * @file
 * Host and build fingerprint recorded with every benchmark result.
 * Two results are comparable only when their fingerprints agree
 * (run.py checks this); the commit is recorded but not compared.
 */

#ifndef GRAL_PERFBENCH_FINGERPRINT_H
#define GRAL_PERFBENCH_FINGERPRINT_H

#include <string>

namespace perfbench
{

struct Fingerprint
{
    std::string cpuModel;
    /** Online CPUs, and CPUs this process may run on. */
    unsigned onlineCpus = 0;
    unsigned affinityCpus = 0;
    /** Parallel speed-up a spin loop actually gets on affinityCpus
     *  threads, relative to one thread (hardware_concurrency() says
     *  how many CPUs exist, not how many the host delivers). */
    double usableParallelism = 0.0;
    std::string compiler;
    std::string buildType;
    /** GRAL_ENABLE_DCHECKS compiled in (RelWithDebInfo): the cache
     *  simulator's per-access cost differs by about half. */
    bool dchecks = false;
};

/** Probe the host (about a quarter of a second of spinning). */
Fingerprint probeFingerprint();

} // namespace perfbench

#endif // GRAL_PERFBENCH_FINGERPRINT_H
