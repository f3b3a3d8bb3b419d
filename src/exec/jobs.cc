#include "exec/jobs.h"

#ifdef __linux__
#include <sched.h>
#endif

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace owl::exec
{

namespace
{

/**
 * OWL_JOBS as a whole decimal integer in [1, 1024], or 0 when unset or
 * anything else ("4x", "-3", "0", "2000"): the same rule the CLI
 * enforces, where a malformed value is a usage error.
 */
int
envJobs()
{
    const char *env = std::getenv("OWL_JOBS");
    if (!env)
        return 0;
    const char *end = env + std::strlen(env);
    int n = 0;
    auto [ptr, ec] = std::from_chars(env, end, n);
    if (ec != std::errc() || ptr != end || n < 1 || n > 1024)
        return 0;
    return n;
}

} // namespace

int
defaultJobs()
{
    if (int n = envJobs())
        return n;
    return availableCpus();
}

int
availableCpus()
{
    // The CPUs this thread may run on, not the machine's: under
    // taskset or a cpuset, nproc workers would share a few cores.
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        int n = CPU_COUNT(&set);
        if (n > 0)
            return n;
    }
#endif
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

} // namespace owl::exec
