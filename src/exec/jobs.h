/**
 * @file
 * How many threads a parallel run uses when its caller leaves the
 * choice open (a job count of 0).
 */

#ifndef OWL_EXEC_JOBS_H
#define OWL_EXEC_JOBS_H

namespace owl::exec
{

/**
 * Degree of parallelism to use when a caller passes 0: the OWL_JOBS
 * environment variable when it is a whole decimal integer in
 * [1, 1024] (any other value counts as unset), otherwise
 * availableCpus(), so a thread pinned by taskset, a cpuset or
 * sched_setaffinity gets that many workers and not one per CPU of the
 * machine.
 */
int defaultJobs();

/**
 * The number of CPUs in the calling thread's affinity mask (what
 * `nproc` prints), falling back to std::thread::hardware_concurrency();
 * never less than 1. defaultJobs() without OWL_JOBS.
 */
int availableCpus();

} // namespace owl::exec

#endif // OWL_EXEC_JOBS_H
