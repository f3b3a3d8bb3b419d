/**
 * @file
 * owl::exec — the parallel execution substrate for the synthesis
 * pipeline.
 *
 * The paper's per-instruction decomposition (§3.3.1) turns one
 * monolithic ∃∀ query into embarrassingly-parallel per-instruction
 * CEGIS problems; this module supplies the machinery to actually run
 * them concurrently:
 *
 *  - ThreadPool: a work-stealing pool. Each worker owns a deque and
 *    pops LIFO from its own tail (cache-friendly for nested spawns)
 *    while idle workers steal FIFO from other queues' heads. Any
 *    thread — worker or external — can help drain the pool via
 *    tryRunOne()/waitFor(), so a thread that blocks joining tasks
 *    executes pending work instead of deadlocking a full pool.
 *
 *  - CancelToken: a copyable cancellation + deadline token shared by
 *    a group of tasks. Consumers poll it cooperatively; the SAT
 *    solver accepts its raw flag() so in-flight solves abort within a
 *    few conflicts of cancellation.
 *
 * Consumers: Strategy::PerInstructionParallel and verifyDesign() in
 * owl::synth (one task per instruction, results joined
 * deterministically in instruction order), plus serve's session
 * threads.
 */

#ifndef OWL_EXEC_THREAD_POOL_H
#define OWL_EXEC_THREAD_POOL_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace owl::exec
{

/**
 * Copyable cancellation + deadline token. All copies share one state;
 * cancel() is sticky. Set the deadline before handing copies to other
 * threads (the flag is atomic, the deadline is not).
 */
class CancelToken
{
  public:
    CancelToken() : st(std::make_shared<State>()) {}

    void cancel() { st->flag.store(true, std::memory_order_relaxed); }
    bool cancelled() const
    {
        return st->flag.load(std::memory_order_relaxed);
    }

    void setDeadline(std::chrono::steady_clock::time_point d)
    {
        st->deadline = d;
    }
    bool hasDeadline() const
    {
        return st->deadline != std::chrono::steady_clock::time_point{};
    }

    /** Cancelled, or past the deadline when one is set. */
    bool expired() const
    {
        if (cancelled())
            return true;
        return hasDeadline() &&
               std::chrono::steady_clock::now() > st->deadline;
    }

    /** Raw flag for layers that poll an atomic (sat::Solver). */
    const std::atomic<bool> *flag() const { return &st->flag; }

  private:
    struct State
    {
        std::atomic<bool> flag{false};
        std::chrono::steady_clock::time_point deadline{};
    };
    std::shared_ptr<State> st;
};

/**
 * Degree of parallelism to use when a caller passes 0: the OWL_JOBS
 * environment variable when it is a whole decimal integer in
 * [1, 1024] (any other value counts as unset), otherwise the number
 * of CPUs in the calling thread's affinity mask, so a thread pinned
 * by taskset, a cpuset or sched_setaffinity gets that many workers
 * and not one per CPU of the machine. Falls back to
 * std::thread::hardware_concurrency(), never less than 1.
 */
int defaultJobs();

/**
 * Work-stealing thread pool. See the file comment for the stealing
 * discipline. Tasks must not assume a particular worker; they may
 * even run inline on a thread that is draining the pool via
 * waitFor()/tryRunOne().
 */
class ThreadPool
{
  public:
    /** @param jobs worker count; 0 = defaultJobs(). */
    explicit ThreadPool(int jobs = 0);
    ~ThreadPool();
    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int workerCount() const { return static_cast<int>(queues.size()); }

    /** Tasks submitted and not yet started. */
    size_t pendingTasks() const
    {
        return pending.load(std::memory_order_relaxed);
    }

    /**
     * Schedule a callable; returns a future for its result. Submission
     * from a worker thread pushes onto that worker's own deque (LIFO
     * execution); external submissions round-robin across workers.
     */
    template <class F,
              class R = std::invoke_result_t<std::decay_t<F>>>
    std::future<R> submit(F &&f)
    {
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(f));
        std::future<R> fut = task->get_future();
        enqueue([task] { (*task)(); });
        return fut;
    }

    /**
     * Steal and run one pending task on the calling thread. Returns
     * false when every queue was empty. The backbone of deadlock-free
     * joins: blocked waiters become workers.
     */
    bool tryRunOne();

    /**
     * Wait for a future, executing pending pool work while it is not
     * ready. Safe to call from worker threads and from outside.
     */
    template <class T>
    T waitFor(std::future<T> &f)
    {
        helpUntilReady(f);
        return f.get();
    }

  private:
    struct Queue
    {
        mutable std::mutex mu;
        std::deque<std::function<void()>> q;
    };

    std::vector<std::unique_ptr<Queue>> queues;
    std::vector<std::thread> workers;
    std::mutex idleMu;
    std::condition_variable idleCv;
    std::atomic<bool> stopping{false};
    std::atomic<size_t> pending{0};
    std::atomic<uint32_t> nextQueue{0};

    void enqueue(std::function<void()> fn);
    void workerLoop(int index);
    bool popFrom(int index, std::function<void()> &out, bool lifo);
    bool takeTask(int self, std::function<void()> &out);

    template <class T>
    void helpUntilReady(std::future<T> &f)
    {
        while (f.wait_for(std::chrono::seconds(0)) !=
               std::future_status::ready) {
            if (!tryRunOne())
                f.wait_for(std::chrono::microseconds(200));
        }
    }
};

} // namespace owl::exec

#endif // OWL_EXEC_THREAD_POOL_H
