/**
 * @file
 * owl::exec::runInOrder — the one concurrency primitive of the
 * synthesis pipeline.
 *
 * The paper's per-instruction decomposition (§3.3.1) makes every
 * instruction's CEGIS query, and every verification obligation, an
 * independent flat task: n tasks, no nested work, and results wanted
 * in spec order, exactly as a sequential loop would produce them.
 * runInOrder runs such a batch on plain threads. Consumers:
 * Strategy::PerInstructionParallel and verifyDesign() in owl::synth.
 */

#ifndef OWL_EXEC_RUN_IN_ORDER_H
#define OWL_EXEC_RUN_IN_ORDER_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/obs.h"

namespace owl::exec
{

/**
 * Run `task(k, cancel_k)` for every k in [0, n) and return the
 * results in order up to and including the first one `ok` rejects:
 * exactly what the sequential loop returns.
 *
 * With one job or one task the loop runs inline on the calling thread
 * and every task gets `cancel` itself. Otherwise min(jobs, n) threads
 * (trace lanes "worker-<i>") claim indices in order from one counter,
 * and task k polls a flag of its own. A rejected result, or an
 * exception, at k sets the flags of the tasks after k only, so every
 * task before k reaches its genuine result and a cancelled task is
 * never the first failure. The calling thread only joins, in order,
 * relaying `cancel` (may be null) to every task; an exception thrown
 * by task k is rethrown here at k's turn. Spans the tasks open are
 * adopted by the caller's innermost open span.
 */
template <class Task, class Ok>
auto
runInOrder(size_t n, int jobs, const std::atomic<bool> *cancel, Task task,
           Ok ok)
    -> std::vector<
        std::invoke_result_t<Task &, size_t, const std::atomic<bool> *>>
{
    using R =
        std::invoke_result_t<Task &, size_t, const std::atomic<bool> *>;
    std::vector<R> out;
    out.reserve(n);
    if (jobs <= 1 || n <= 1) {
        for (size_t k = 0; k < n; k++) {
            out.push_back(task(k, cancel));
            if (!ok(out.back()))
                break;
        }
        return out;
    }

    struct Slot
    {
        std::optional<R> result;
        std::exception_ptr error;
        bool done = false; ///< guarded by mu
    };
    std::vector<Slot> slots(n);
    std::vector<std::atomic<bool>> cancelled(n);
    auto cancelFrom = [&cancelled](size_t k) {
        for (size_t j = k; j < cancelled.size(); j++)
            cancelled[j].store(true, std::memory_order_relaxed);
    };
    std::mutex mu;
    std::condition_variable ready;
    std::atomic<size_t> next{0};
    obs::TaskSpanContext ctx = obs::TaskSpanContext::capture();
    auto work = [&](int index) {
        obs::setLaneName("worker-" + std::to_string(index));
        for (size_t k; (k = next.fetch_add(1)) < n;) {
            OWL_COUNTER_ADD("exec.tasks", 1);
            // A task starting after the caller cancelled sees it at
            // once; the joining thread relays it to running tasks.
            if (cancel && cancel->load(std::memory_order_relaxed))
                cancelFrom(0);
            Slot &s = slots[k];
            {
                obs::TaskSpanScope scope(ctx);
                try {
                    s.result.emplace(task(k, &cancelled[k]));
                } catch (...) {
                    s.error = std::current_exception();
                }
            }
            if (s.error || !ok(*s.result))
                cancelFrom(k + 1);
            {
                std::lock_guard<std::mutex> lock(mu);
                s.done = true;
            }
            ready.notify_one();
        }
    };
    // Declared after everything the workers use: leaving this scope,
    // normally or by a rethrow, joins them first.
    std::vector<std::jthread> threads;
    int nthreads = static_cast<int>(std::min<size_t>(jobs, n));
    for (int i = 0; i < nthreads; i++)
        threads.emplace_back(work, i);

    for (Slot &s : slots) {
        {
            std::unique_lock<std::mutex> lock(mu);
            auto done = [&s] { return s.done; };
            if (!cancel)
                ready.wait(lock, done);
            // Nothing notifies a caller's cancellation: poll for it.
            while (!ready.wait_for(lock, std::chrono::milliseconds(1),
                                   done)) {
                if (cancel->load(std::memory_order_relaxed))
                    cancelFrom(0);
            }
        }
        if (s.error)
            std::rethrow_exception(s.error);
        out.push_back(std::move(*s.result));
        if (!ok(out.back()))
            break;
    }
    return out;
}

} // namespace owl::exec

#endif // OWL_EXEC_RUN_IN_ORDER_H
