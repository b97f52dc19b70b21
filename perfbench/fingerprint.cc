#include "fingerprint.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <thread>
#include <vector>

namespace perfbench
{

namespace
{

std::string
readCpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** A fixed amount of dependent integer work. */
std::uint64_t
spin(std::uint64_t iterations)
{
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t i = 0; i < iterations; ++i)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x;
}

/** Seconds for @p threads threads to each spin @p iterations. */
double
timeSpin(unsigned threads, std::uint64_t iterations)
{
    std::atomic<std::uint64_t> sink{0};
    auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&] { sink += spin(iterations); });
    for (std::thread &thread : pool)
        thread.join();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

} // namespace

Fingerprint
probeFingerprint()
{
    Fingerprint fp;
    fp.cpuModel = readCpuModel();
    long online = sysconf(_SC_NPROCESSORS_ONLN);
    fp.onlineCpus = online > 0 ? static_cast<unsigned>(online) : 1;
    cpu_set_t set;
    CPU_ZERO(&set);
    fp.affinityCpus =
        sched_getaffinity(0, sizeof(set), &set) == 0
            ? static_cast<unsigned>(CPU_COUNT(&set))
            : fp.onlineCpus;

    // Best of three each, so one descheduling does not read as a
    // missing core.
    constexpr std::uint64_t kIterations = 20'000'000;
    double one = 1e30;
    double many = 1e30;
    for (int r = 0; r < 3; ++r) {
        one = std::min(one, timeSpin(1, kIterations));
        many = std::min(many, timeSpin(fp.affinityCpus, kIterations));
    }
    fp.usableParallelism = fp.affinityCpus * one / many;

#if defined(__clang__)
    fp.compiler = std::string("clang ") + __clang_version__;
#else
    fp.compiler = std::string("g++ ") + __VERSION__;
#endif
    fp.buildType = PERFBENCH_BUILD_TYPE;
#ifdef GRAL_ENABLE_DCHECKS
    fp.dchecks = true;
#endif
    return fp;
}

} // namespace perfbench
