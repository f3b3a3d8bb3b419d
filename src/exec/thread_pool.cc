#include "exec/thread_pool.h"

#ifdef __linux__
#include <sched.h>
#endif

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/obs.h"

namespace owl::exec
{

namespace
{

/** Worker index on the owning pool, -1 on external threads. */
thread_local int tlWorkerIndex = -1;
thread_local ThreadPool *tlWorkerPool = nullptr;

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

ThreadPool::ThreadPool(int jobs)
{
    int n = jobs > 0 ? jobs : defaultJobs();
    queues.reserve(n);
    for (int i = 0; i < n; i++)
        queues.push_back(std::make_unique<Queue>());
    workers.reserve(n);
    for (int i = 0; i < n; i++)
        workers.emplace_back([this, i] { workerLoop(i); });
    OWL_COUNTER_ADD("exec.pools", 1);
}

ThreadPool::~ThreadPool()
{
    stopping.store(true, std::memory_order_release);
    idleCv.notify_all();
    for (auto &w : workers)
        w.join();
}

void
ThreadPool::enqueue(std::function<void()> fn)
{
    int target;
    if (tlWorkerPool == this) {
        target = tlWorkerIndex;
    } else {
        target = static_cast<int>(
            nextQueue.fetch_add(1, std::memory_order_relaxed) %
            queues.size());
    }
    {
        std::lock_guard<std::mutex> lock(queues[target]->mu);
        queues[target]->q.push_back(std::move(fn));
    }
    pending.fetch_add(1, std::memory_order_release);
    OWL_COUNTER_ADD("exec.tasks", 1);
    idleCv.notify_one();
}

bool
ThreadPool::popFrom(int index, std::function<void()> &out, bool lifo)
{
    Queue &qu = *queues[index];
    std::lock_guard<std::mutex> lock(qu.mu);
    if (qu.q.empty())
        return false;
    if (lifo) {
        out = std::move(qu.q.back());
        qu.q.pop_back();
    } else {
        out = std::move(qu.q.front());
        qu.q.pop_front();
    }
    pending.fetch_sub(1, std::memory_order_relaxed);
    return true;
}

bool
ThreadPool::takeTask(int self, std::function<void()> &out)
{
    // Own deque first (LIFO tail), then steal FIFO from the others,
    // scanning from the next index so thieves spread out.
    if (self >= 0 && popFrom(self, out, /*lifo=*/true))
        return true;
    int n = workerCount();
    int start = self >= 0 ? (self + 1) % n : 0;
    for (int k = 0; k < n; k++) {
        int i = (start + k) % n;
        if (i == self)
            continue;
        if (popFrom(i, out, /*lifo=*/false)) {
            if (self >= 0)
                OWL_COUNTER_ADD("exec.steals", 1);
            return true;
        }
    }
    return false;
}

bool
ThreadPool::tryRunOne()
{
    std::function<void()> fn;
    int self = tlWorkerPool == this ? tlWorkerIndex : -1;
    if (!takeTask(self, fn))
        return false;
    fn();
    return true;
}

void
ThreadPool::workerLoop(int index)
{
    tlWorkerIndex = index;
    tlWorkerPool = this;
    // Name this worker's trace lane so Chrome-trace exports show
    // "worker-<i>" rows instead of bare lane numbers.
    obs::setLaneName("worker-" + std::to_string(index));
    std::function<void()> fn;
    while (true) {
        if (takeTask(index, fn)) {
            fn();
            fn = nullptr;
            continue;
        }
        if (stopping.load(std::memory_order_acquire))
            break;
        std::unique_lock<std::mutex> lock(idleMu);
        idleCv.wait_for(lock, std::chrono::milliseconds(10), [this] {
            return pending.load(std::memory_order_acquire) > 0 ||
                   stopping.load(std::memory_order_acquire);
        });
    }
    tlWorkerIndex = -1;
    tlWorkerPool = nullptr;
}

} // namespace owl::exec
