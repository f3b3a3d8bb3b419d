#include "serve/server.h"

#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <utility>

#include "base/logging.h"
#include "core/synthesis.h"
#include "obs/obs.h"
#include "serve/fingerprint.h"

namespace owl::serve
{

Server::Server(const ServerOptions &opts)
    : opts_(opts), cache_(opts.cacheBytes), pool_(opts.poolSlots),
      queue_(opts.queueCap > 0 ? opts.queueCap : 1)
{
    int n = opts_.sessions > 0 ? opts_.sessions : 1;
    opts_.sessions = n;
    // Pre-register the serve counter set so exports always carry the
    // full family (a counter that stayed 0 still shows up, and
    // schema checks can require its presence).
    for (const char *name :
         {"serve.requests", "serve.requests_errored",
          "serve.instr_queries", "serve.spans_abandoned",
          "serve.queue.rejected", "serve.cache.hits",
          "serve.cache.misses", "serve.cache.insertions",
          "serve.cache.evictions", "serve.cache.bytes",
          "serve.sessions.created", "serve.sessions.reused"})
        obs::Registry::instance().counter(name);
    loops_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; i++)
        loops_.emplace_back([this, i] { sessionLoop(i); });
}

Server::~Server() { shutdown(); }

void
Server::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(activeMu_);
        if (down_)
            return;
        down_ = true;
    }
    queue_.close();
    {
        // Cooperatively cancel whatever the sessions are solving so
        // the loops wind down promptly instead of finishing long
        // CEGIS runs.
        std::lock_guard<std::mutex> lock(activeMu_);
        for (std::atomic<bool> &flag : active_)
            flag.store(true, std::memory_order_relaxed);
    }
    // The loops exit once the queue is closed and drained.
    for (std::thread &t : loops_)
        t.join();
    loops_.clear();
}

std::future<JobResult>
Server::submit(JobRequest req)
{
    Item item;
    item.req = std::move(req);
    std::future<JobResult> fut = item.promise.get_future();
    if (!queue_.push(std::move(item)))
        throw std::runtime_error("serve: queue closed");
    return fut;
}

bool
Server::trySubmit(JobRequest req, std::future<JobResult> *out)
{
    Item item;
    item.req = std::move(req);
    std::future<JobResult> fut = item.promise.get_future();
    if (!queue_.tryPush(std::move(item))) {
        OWL_COUNTER_INC("serve.queue.rejected");
        return false;
    }
    if (out)
        *out = std::move(fut);
    return true;
}

std::vector<JobResult>
Server::runBatch(std::vector<JobRequest> jobs)
{
    std::vector<std::future<JobResult>> futures;
    futures.reserve(jobs.size());
    for (JobRequest &job : jobs)
        futures.push_back(submit(std::move(job)));
    std::vector<JobResult> results;
    results.reserve(futures.size());
    for (auto &f : futures)
        results.push_back(f.get());
    return results;
}

void
Server::sessionLoop(int idx)
{
    obs::setLaneName("serve-session-" + std::to_string(idx));
    while (auto item = queue_.pop()) {
        JobResult res;
        // The promise must be satisfied on every path, including a
        // throw out of processJob's own error handling.
        try {
            res = processJob(item->req);
        } catch (const std::exception &e) {
            res.id = item->req.id;
            res.design = item->req.design;
            res.status = "error";
            res.error = e.what();
        }
        item->promise.set_value(std::move(res));
    }
}

JobResult
Server::processJob(const JobRequest &req)
{
    auto t0 = std::chrono::steady_clock::now();
    JobResult res;
    res.id = req.id;
    res.design = req.design;

    // Per-request budget + cancellation: the deadline rides on the
    // CEGIS options, the cancel flag lives in active_ for shutdown().
    int64_t budget_ms =
        req.budgetMs > 0 ? req.budgetMs : opts_.defaultBudgetMs;
    std::list<std::atomic<bool>>::iterator active_it;
    {
        std::lock_guard<std::mutex> lock(activeMu_);
        active_it = active_.emplace(active_.end(), false);
    }

    // Per-request observability: own span tree + counter deltas, no
    // cross-request leakage (the scope's sink is thread-local and the
    // whole job runs on this session's thread).
    obs::RequestScope scope("serve.request");
    scope.attr("design", req.design);
    if (!req.id.empty())
        scope.attr("id", req.id);
    OWL_COUNTER_INC("serve.requests");

    // The request counts its own cache and pool traffic, so results
    // carry it whether or not obs records counters.
    std::unique_ptr<WarmSessionPool::Binding> binding;
    try {
        const designs::CaseStudyMaker *maker =
            designs::findCaseStudyMaker(req.design);
        if (!maker) {
            res.status = "bad-request";
            res.error = "unknown design \"" + req.design + "\"";
        } else {
            // Request-local design objects: verification mutates the
            // sketch (control union), so each request gets its own.
            designs::CaseStudy cs = (*maker)();
            uint64_t dfp = designFingerprint(cs.sketch, cs.spec,
                                             cs.alpha);
            scope.attr("design_fp",
                       static_cast<int64_t>(dfp));
            binding = pool_.bind(dfp, *maker);

            synth::CegisOptions copts;
            copts.maxIterations = req.maxIterations;
            copts.solver = req.solver;
            copts.cancelFlag = &*active_it;
            if (budget_ms > 0)
                copts.deadline =
                    t0 + std::chrono::milliseconds(budget_ms);
            copts.sessionPool = binding.get();

            synth::InstrSynthesizer synth(cs.sketch, cs.spec,
                                          cs.alpha);
            InstrFingerprinter instr_fp(cs.spec);
            for (const auto &instr : cs.spec.instrs()) {
                if (copts.expired()) {
                    res.status = "timeout";
                    res.failedInstr = instr->name();
                    break;
                }
                OWL_COUNTER_INC("serve.instr_queries");
                std::string key = cacheKey(dfp, instr_fp(*instr));
                if (auto cached = cache_.lookup(key)) {
                    res.cacheHits++;
                    res.holes.emplace_back(instr->name(),
                                           std::move(*cached));
                    continue;
                }
                res.cacheMisses++;
                // Cache miss: run CEGIS. No pin — matches the
                // parallel strategy's semantics, so results are
                // bit-identical whatever order requests arrive in
                // (DESIGN.md §11).
                synth::CegisResult r =
                    synth.synthesize(*instr, nullptr, copts);
                res.iterations += r.iterations;
                if (r.status != synth::SynthStatus::Ok) {
                    res.status = synth::synthStatusName(r.status);
                    res.failedInstr = instr->name();
                    break;
                }
                cache_.insert(key, r.holes);
                res.holes.emplace_back(instr->name(),
                                       std::move(r.holes));
            }
            // The reply carries holes, not the completed design, so
            // only verification needs the control union.
            if (res.ok() && req.verify) {
                synth::applyControlUnion(cs.sketch, cs.spec, cs.alpha,
                                         res.holes);
                // One job: the sessions are serve's parallelism, and
                // every session fanning out to nproc threads would
                // oversubscribe the machine.
                std::string failed;
                synth::SynthStatus v = synth::verifyDesign(
                    cs.sketch, cs.spec, cs.alpha, &failed, copts,
                    /*jobs=*/1);
                if (v != synth::SynthStatus::Ok) {
                    res.status = "verify-failed";
                    res.failedInstr = failed;
                }
            }
        }
    } catch (const std::exception &e) {
        // owl_panic/owl_fatal surface here; the session survives and
        // the next request starts from a clean span stack (any spans
        // the unwind abandoned are force-closed below).
        res.status = "error";
        res.error = e.what();
        OWL_COUNTER_INC("serve.requests_errored");
    }

    if (binding) {
        res.sessionsReused = binding->reused();
        res.sessionsCreated = binding->created();
        binding.reset();
    }

    // A panicking or cancelled request must not poison the
    // next request's export. Close leftovers before reading deltas.
    res.spansAbandoned = scope.forceCloseAbandoned();
    if (res.spansAbandoned > 0)
        OWL_COUNTER_ADD("serve.spans_abandoned", res.spansAbandoned);

    res.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    scope.attr("status", res.status);

    if (!req.statsJson.empty()) {
        if (!scope.writeJsonFile(req.statsJson,
                                 {{"tool", "owl-serve"},
                                  {"design", req.design},
                                  {"id", req.id},
                                  {"status", res.status}})) {
            fprintf(stderr,
                    "[owl:serve] failed to write per-request stats "
                    "to %s\n",
                    req.statsJson.c_str());
        }
    }

    {
        std::lock_guard<std::mutex> lock(activeMu_);
        active_.erase(active_it);
    }
    return res;
}

} // namespace owl::serve
