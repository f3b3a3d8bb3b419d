/**
 * @file
 * The serve loop: synthesis as a long-lived service (DESIGN.md §11).
 *
 *   requests -> BoundedQueue -> N session workers -> results
 *                                  |         |
 *                          WarmSessionPool  ResultCache
 *
 * A Server owns a bounded intake queue, N threads running long-lived
 * session loops, the cross-request ResultCache, and the
 * WarmSessionPool. Every front end — `owl serve --batch`, the NDJSON
 * socket, tests — goes through submit(), so they exercise the
 * identical path.
 *
 * Per request: its own cancel flag (set by shutdown()) and budget_ms
 * deadline, both plumbed through CEGIS into CDCL, its own
 * obs::RequestScope (span tree +
 * counter deltas + abandoned-span force-close), and per-instruction
 * cache lookups keyed by content fingerprints. owl_panic/owl_fatal
 * escape as exceptions and are caught per request: the session loop
 * survives, the result carries status "error".
 */

#ifndef OWL_SERVE_SERVER_H
#define OWL_SERVE_SERVER_H

#include <atomic>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/queue.h"
#include "serve/cache.h"
#include "serve/request.h"
#include "serve/session_pool.h"

namespace owl::serve
{

/** Server shape; fixed at construction. */
struct ServerOptions
{
    /** Concurrent synthesis sessions (worker loops). */
    int sessions = 1;
    /** Intake queue capacity (backpressure bound). */
    size_t queueCap = 64;
    /** Result-cache byte budget; 0 = unbounded. */
    size_t cacheBytes = 64u << 20;
    /** Designs kept warm in the session pool. */
    size_t poolSlots = 8;
    /** Default per-request budget when the job sets none; 0 = none. */
    int64_t defaultBudgetMs = 0;
};

class Server
{
  public:
    explicit Server(const ServerOptions &opts = {});
    ~Server();
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Enqueue a job; blocks while the queue is full. The future is
     * satisfied when a session finishes the job. Throws
     * std::runtime_error after shutdown().
     */
    std::future<JobResult> submit(JobRequest req);

    /**
     * Non-blocking submit for the socket path: false when the queue
     * is full or closed (books serve.queue.rejected).
     */
    bool trySubmit(JobRequest req, std::future<JobResult> *out);

    /**
     * Run a whole batch through the queue and collect results in
     * input order. Call from outside the session loops.
     */
    std::vector<JobResult> runBatch(std::vector<JobRequest> jobs);

    /**
     * Stop intake, cancel in-flight requests, and join the session
     * loops. Idempotent; the destructor calls it.
     */
    void shutdown();

    CacheStats cacheStats() const { return cache_.stats(); }
    SessionPoolStats poolStats() const { return pool_.stats(); }
    const ServerOptions &options() const { return opts_; }

  private:
    struct Item
    {
        JobRequest req;
        std::promise<JobResult> promise;
    };

    void sessionLoop(int idx);
    JobResult processJob(const JobRequest &req);

    ServerOptions opts_;
    ResultCache cache_;
    WarmSessionPool pool_;
    exec::BoundedQueue<Item> queue_;
    std::mutex activeMu_;
    std::list<std::atomic<bool>> active_; ///< in-flight cancel flags
    bool down_ = false;

    std::vector<std::thread> loops_; ///< session loops
};

} // namespace owl::serve

#endif // OWL_SERVE_SERVER_H
