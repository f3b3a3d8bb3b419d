/**
 * @file
 * owl::obs — the unified instrumentation layer for the synthesis
 * pipeline (registry of counters + histograms, hierarchical timed
 * spans, JSON stats export, Chrome-trace export hooks, and an
 * env-var-gated structured trace log).
 *
 * The paper's headline results are wall-clock and solver-effort
 * numbers (Tables 1-3: per-instruction synthesis time, CEGIS
 * iteration counts, SAT conflicts); this module gives every layer one
 * common way to record and export them.
 *
 *  - Counters: process-wide named uint64 accumulators, atomically
 *    updated. `OWL_COUNTER_ADD("sat.conflicts", n)` caches the
 *    registry lookup in a function-local static, so the steady-state
 *    cost is one branch plus one relaxed atomic add.
 *
 *  - Histograms: fixed-bucket log2 distributions
 *    (`OWL_HISTOGRAM_RECORD("smt.query_ns", ns)`). Each histogram
 *    keeps lock-free per-thread shards (relaxed atomics, one writer
 *    per shard) that are merged at export, so recording never takes a
 *    lock after the first hit on a thread. Hot loops should instead
 *    accumulate into a plain `LocalHistogram` and bulk-`merge()` once
 *    per solve call, mirroring the sat::Stats flush discipline.
 *
 *  - Spans: `ScopedSpan s("smt.checkSat")` records a timed region on
 *    a thread-local stack; nested spans become children, producing a
 *    tree like `cegis > cegis.iter > verify > smt.checkSat >
 *    sat.solve`. Spans carry integer/string attributes (iteration
 *    numbers, counterexample counts, solver effort) and the lane
 *    (thread) that recorded them, which the Chrome-trace exporter
 *    (obs/trace.h) turns into per-worker timeline rows.
 *
 *  - Counter-track samples: when sampling is switched on
 *    (`owl --trace-out`), layers may append timestamped counter
 *    samples on their existing low-cost strides via sampleCounter();
 *    the trace exporter renders them as Perfetto counter tracks.
 *
 *  - Export: Registry::toJson() serializes counters + histograms +
 *    the span forest to the stable `owl.obs.v2` schema consumed by
 *    the bench harness (BENCH_*.json), `owl --stats-json`, and CI's
 *    schema check (tools/check_stats_schema.py). v2 is a strict
 *    superset of v1: the `counters`, `spans`, and `meta` shapes are
 *    unchanged, so v1 consumers keep working.
 *
 *  - Trace: `OWL_TRACE=cegis,smt` (or `all`) enables per-category
 *    structured event lines on stderr via `OWL_TRACE_EVENT(...)`.
 *
 * Switches: compile-time `OWL_OBS_ENABLED=0` (CMake option) turns the
 * macros and span/counter bodies into no-ops; at runtime, the env var
 * `OWL_OBS=0` or obs::setEnabled(false) disables recording. The
 * disabled path adds no measurable overhead to hot loops (verified by
 * bench_micro's BM_SatSolveObs* pair): hot-loop counting stays in the
 * layers' own stats structs (e.g. sat::Stats) and is flushed into the
 * registry once per solve call.
 */

#ifndef OWL_OBS_OBS_H
#define OWL_OBS_OBS_H

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.h" // formatMsg, used by OWL_TRACE_EVENT
#include "obs/json.h"

#ifndef OWL_OBS_ENABLED
#define OWL_OBS_ENABLED 1
#endif

namespace owl::obs
{

/** True when the instrumentation layer is compiled in. */
constexpr bool
compiledIn()
{
    return OWL_OBS_ENABLED != 0;
}

#if OWL_OBS_ENABLED
/** True when recording is compiled in and enabled at runtime. */
bool enabled();
#else
constexpr bool enabled() { return false; }
#endif

/** Flip runtime recording (initial value: env OWL_OBS != "0"). */
void setEnabled(bool on);

/** Nanoseconds since the process-wide obs epoch (steady clock). */
uint64_t nowNs();

// ---- counters ----------------------------------------------------------

class Counter;

namespace detail
{
/**
 * Per-thread counter-delta sink installed by RequestScope. While one
 * is active on a thread, every Counter::add() on that thread is
 * additionally recorded as a per-request delta; other threads (and
 * their own scopes) are unaffected, which is what keeps per-request
 * exports free of cross-request leakage.
 */
struct RequestSink;
extern thread_local RequestSink *tlRequestSink;
void requestSinkAdd(const Counter *c, uint64_t delta);
} // namespace detail

/** A named process-wide accumulator. Thread-safe. */
class Counter
{
  public:
    explicit Counter(std::string name = {}) : name_(std::move(name)) {}

    void add(uint64_t delta)
    {
        v.fetch_add(delta, std::memory_order_relaxed);
        if (detail::tlRequestSink != nullptr)
            detail::requestSinkAdd(this, delta);
    }
    uint64_t get() const { return v.load(std::memory_order_relaxed); }
    void reset() { v.store(0, std::memory_order_relaxed); }
    /** Registry name ("" for counters created outside the registry). */
    const std::string &name() const { return name_; }

  private:
    std::atomic<uint64_t> v{0};
    std::string name_;
};

// ---- histograms --------------------------------------------------------

/** Number of log2 buckets per histogram. */
constexpr int kHistogramBuckets = 64;

/**
 * Bucket index for a value: 0 holds exactly the value 0; bucket b >= 1
 * holds [2^(b-1), 2^b). The last bucket absorbs everything above.
 */
constexpr int
histogramBucket(uint64_t v)
{
    if (v == 0)
        return 0;
    int b = 64 - std::countl_zero(v); // bit_width(v)
    return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

/**
 * A plain, single-threaded histogram accumulator. Safe (and cheap
 * enough) for hot loops: recording is an array increment plus four
 * scalar updates, no atomics, no locks. Flush into a shared
 * `Histogram` with merge() once per solve call. Also the snapshot
 * type returned by Histogram::snapshot().
 */
struct LocalHistogram
{
    uint64_t buckets[kHistogramBuckets] = {};
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = UINT64_MAX;
    uint64_t max = 0;

    void record(uint64_t v)
    {
        buckets[histogramBucket(v)]++;
        count++;
        sum += v;
        if (v < min)
            min = v;
        if (v > max)
            max = v;
    }
    bool empty() const { return count == 0; }
    void clear() { *this = LocalHistogram{}; }
};

/**
 * A named process-wide log2 histogram. record()/merge() write to a
 * per-thread shard (relaxed atomics, single writer per shard), so
 * concurrent recording threads never contend; snapshot() merges all
 * shards. References returned by Registry::histogram() never move
 * (OWL_HISTOGRAM_RECORD caches one in a function-local static).
 */
class Histogram
{
  public:
    // Both out of line: Shard is incomplete here, and in-class
    // defaulted special members would instantiate the shard vector's
    // destructor against the incomplete type.
    Histogram();
    ~Histogram();
    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    /** Record one value into this thread's shard. */
    void record(uint64_t v);

    /** Bulk-merge a hot-loop accumulator into this thread's shard. */
    void merge(const LocalHistogram &h);

    /** Merged view across every shard. */
    LocalHistogram snapshot() const;

    /** Zero every shard (shards stay allocated; references valid). */
    void reset();

  private:
    struct Shard;
    Shard &localShard();

    // Unique per construction, never reused. The per-thread shard
    // cache keys on this rather than the address so a histogram
    // allocated where a destroyed one used to live (stack reuse in
    // tests) cannot hit a stale shard pointer.
    uint64_t id;

    mutable std::mutex mu; // guards the shard list, never the hot path
    std::vector<std::unique_ptr<Shard>> shards;
};

// ---- lanes (thread identity for the trace exporter) --------------------

/**
 * Small dense id of the calling thread, assigned on first use. Spans
 * record the lane that opened them; the Chrome-trace exporter emits
 * one timeline row per lane.
 */
int currentLane();

/** Name the calling thread's lane ("main", "worker-3", ...). */
void setLaneName(const std::string &name);

// ---- counter-track samples ---------------------------------------------

/** One timestamped counter-track sample for the trace exporter. */
struct CounterSample
{
    std::string name;
    uint64_t tsNs = 0;
    uint64_t value = 0;
};

/**
 * Switch timestamped counter sampling on or off (off by default;
 * `owl --trace-out` turns it on). While off, sampleCounter() is a
 * relaxed atomic load and a branch.
 */
void setCounterSampling(bool on);
bool counterSamplingEnabled();

/**
 * Append a sample for counter track `name` at nowNs(). Callers sit on
 * their existing low-cost strides (e.g. the SAT solver's conflict
 * poll), so the enabled cost is bounded and the disabled cost is one
 * predictable branch.
 */
void sampleCounter(const char *name, uint64_t value);

// ---- spans -------------------------------------------------------------

/** One attribute on a span: integer or string valued. */
struct SpanAttr
{
    std::string key;
    bool isString = false;
    int64_t num = 0;
    std::string str;
};

struct AdoptionSlot; // cross-thread child delivery, see TaskSpanContext

/** A completed timed region; children are fully nested sub-regions. */
struct SpanNode
{
    std::string name;
    uint64_t startNs = 0;
    uint64_t durNs = 0;
    /** Lane (thread) that recorded this span; see currentLane(). */
    int lane = 0;
    std::vector<SpanAttr> attrs;
    std::vector<std::unique_ptr<SpanNode>> children;
    /** Lazily created when this span dispatches work to other threads. */
    std::shared_ptr<AdoptionSlot> slot;
};

/**
 * RAII span. Construction opens a region (child of the innermost open
 * span on this thread); destruction closes it and attaches it to its
 * parent, or to the registry's root forest for top-level spans.
 * Inactive (and free apart from one branch) while recording is
 * disabled.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name)
    {
        if (enabled())
            begin(name);
    }
    ~ScopedSpan()
    {
        if (node)
            end();
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    bool active() const { return node != nullptr; }

    /** Attach an integer attribute (no-op when inactive). */
    void attr(const char *key, int64_t value);
    void attr(const char *key, uint64_t value)
    {
        attr(key, static_cast<int64_t>(value));
    }
    void attr(const char *key, int value)
    {
        attr(key, static_cast<int64_t>(value));
    }
    /** Attach a string attribute (no-op when inactive). */
    void attr(const char *key, const std::string &value);
    void attr(const char *key, const char *value)
    {
        attr(key, std::string(value));
    }

  private:
    SpanNode *node = nullptr;

    void begin(const char *name);
    void end();
};

// ---- cross-thread span attribution -------------------------------------

/**
 * Captured handle to the innermost open span on the *dispatching*
 * thread. A task run on a worker thread (exec::runInOrder) carries a
 * copy; spans the worker completes at its own top level are then
 * delivered to the dispatching span — they appear as its children
 * (sorted by start time) when it closes — instead of piling up as
 * unattributed roots. If the dispatching span closes before a worker
 * finishes, that worker's spans fall back to the root forest (counted
 * by `obs.spans.late_adopted`), so the tree stays well-formed without
 * blocking anyone.
 *
 * capture() must run on the thread that currently has the span open.
 * A default-constructed (invalid) context is a safe no-op: workers
 * root their spans exactly as before.
 */
class TaskSpanContext
{
  public:
    TaskSpanContext() = default;

    /** Snapshot the current thread's innermost open span. */
    static TaskSpanContext capture();

    bool valid() const { return slot != nullptr; }

  private:
    friend class TaskSpanScope;
    std::shared_ptr<AdoptionSlot> slot;
};

/**
 * Worker-side RAII guard: while alive, top-level spans completed on
 * this thread are delivered to the captured dispatching span. Nests
 * (the previous target is restored on destruction).
 */
class TaskSpanScope
{
  public:
    explicit TaskSpanScope(const TaskSpanContext &ctx);
    ~TaskSpanScope();
    TaskSpanScope(const TaskSpanScope &) = delete;
    TaskSpanScope &operator=(const TaskSpanScope &) = delete;

  private:
    std::shared_ptr<AdoptionSlot> prev;
};

// ---- per-request isolation ---------------------------------------------

/**
 * RAII scope giving one serve request its own span tree and counter
 * deltas, without cross-request leakage (ISSUE 7 satellite).
 *
 *  - Spans: construction opens a root span (like ScopedSpan) under
 *    which all the request's spans nest; the tree is exportable
 *    per-request via toJson()/writeJsonFile() while the global
 *    registry still receives it as a normal root at destruction.
 *
 *  - Counters: while the scope is alive, every Counter::add() on this
 *    thread is additionally recorded as a per-request delta
 *    (global counters are unaffected). counterDeltas() returns what
 *    this request alone added. Same-thread only by design: a serve
 *    session processes one request on one worker thread, and deltas
 *    booked by helpers on other threads stay global-only.
 *
 *  - Abandonment: a request that throws (owl_panic) or is cancelled
 *    mid-span would leave open spans on the thread stack, poisoning
 *    the next request's tree. forceCloseAbandoned() (also run by the
 *    destructor) closes every span still open above the request root,
 *    tags each with attr abandoned=1, and books
 *    `obs.request.spans_abandoned`. Only safe because those spans'
 *    ScopedSpan owners are already destroyed (stack unwound past
 *    them) or will never run their destructor body again — see
 *    serve::Server for the catch-before-export discipline.
 *
 * Scopes must not nest on one thread, and the scope must be destroyed
 * on the thread that created it. Inactive (all methods no-ops, active()
 * false) while recording is disabled.
 */
class RequestScope
{
  public:
    explicit RequestScope(const char *name);
    ~RequestScope();
    RequestScope(const RequestScope &) = delete;
    RequestScope &operator=(const RequestScope &) = delete;

    bool active() const { return root != nullptr; }

    /** Attach an attribute to the request root span. */
    void attr(const char *key, int64_t value);
    void attr(const char *key, const std::string &value);

    /**
     * Close every span still open above the request root (stack
     * unwound past their ScopedSpan owners without end() running is
     * impossible — ScopedSpan always ends — so in practice these are
     * spans begun by code that leaked them or was force-terminated).
     * Returns how many were closed; also booked into
     * `obs.request.spans_abandoned` and abandonedSpans().
     */
    size_t forceCloseAbandoned();

    /** Total spans force-closed by this scope so far. */
    size_t abandonedSpans() const { return abandoned; }

    /** Spans currently open on this thread above the request root. */
    size_t openSpans() const;

    /**
     * This request's counter deltas (name -> amount added while the
     * scope was active on this thread), sorted by name. Unnamed
     * counters (created outside the registry) are skipped.
     */
    std::vector<std::pair<std::string, uint64_t>> counterDeltas() const;

    /** Delta for one counter name; 0 when untouched. */
    uint64_t counterDelta(const std::string &name) const;

    /**
     * Per-request stats document in the owl.obs.v2 shape: counters
     * are this request's deltas, histograms are empty (histograms are
     * process-global), spans holds a snapshot of the request tree (the
     * root span's dur_ns is "so far"), open_spans counts spans still
     * open above the root.
     */
    json::Value toJson(
        const std::vector<std::pair<std::string, std::string>> &meta =
            {}) const;

    /** Write toJson() to a file; false on I/O failure. */
    bool writeJsonFile(
        const std::string &path,
        const std::vector<std::pair<std::string, std::string>> &meta =
            {}) const;

  private:
    SpanNode *root = nullptr;
    detail::RequestSink *sink = nullptr;
    detail::RequestSink *prevSink = nullptr;
    size_t abandoned = 0;
    uint64_t startNs_ = 0;
};

// ---- registry ----------------------------------------------------------

/**
 * The process-wide sink for counters, histograms, and completed span
 * trees. counter()/histogram() return stable references suitable for
 * caching in a static (OWL_COUNTER_ADD / OWL_HISTOGRAM_RECORD do
 * exactly that).
 */
class Registry
{
  public:
    static Registry &instance();

    /** Find-or-create a counter. The reference never moves. */
    Counter &counter(const std::string &name);

    /** Current value; 0 for unknown counters. */
    uint64_t counterValue(const std::string &name) const;

    /** Name -> value snapshot, sorted by name. */
    std::vector<std::pair<std::string, uint64_t>> counters() const;

    /** Find-or-create a histogram. The reference never moves. */
    Histogram &histogram(const std::string &name);

    /** Name -> merged snapshot, sorted by name. */
    std::vector<std::pair<std::string, LocalHistogram>>
    histograms() const;

    /** Number of completed top-level spans. */
    size_t rootSpanCount() const;

    /** Number of spans currently open across all threads. */
    size_t openSpanCount() const;

    /** Lane id -> name pairs registered via setLaneName(). */
    std::vector<std::pair<int, std::string>> laneNames() const;

    /** Snapshot of the counter-track samples (see sampleCounter()). */
    std::vector<CounterSample> counterSamples() const;

    /**
     * Serialize to the owl.obs.v2 schema — a strict superset of v1
     * (same `counters`/`spans`/`meta` shapes):
     *
     *   { "schema": "owl.obs.v2",
     *     "meta":     { "<k>": "<v>", ... },           // optional
     *     "counters": { "<name>": <uint>, ... },
     *     "histograms": { "<name>": { "count": <uint>, "sum": <uint>,
     *                                 "min": <uint>, "max": <uint>,
     *                                 "buckets": { "<idx>": <uint> } } },
     *     "open_spans": <uint>,  // nonzero = export saw partial data
     *     "spans":    [ { "name": str, "start_ns": int,
     *                     "dur_ns": int, "lane": int,
     *                     "attrs": { k: int|str, ... },
     *                     "children": [ ...same shape... ] } ] }
     */
    json::Value toJson(
        const std::vector<std::pair<std::string, std::string>> &meta =
            {}) const;
    std::string toJsonString(
        const std::vector<std::pair<std::string, std::string>> &meta =
            {}) const;

    /** Write toJsonString() to a file; false on I/O failure. */
    bool writeJsonFile(
        const std::string &path,
        const std::vector<std::pair<std::string, std::string>> &meta =
            {}) const;

    /**
     * Zero every counter and histogram, drop all completed spans and
     * counter samples. Counter/histogram references stay valid.
     * Calling with spans still open is diagnosed loudly on stderr and
     * recorded in the (post-reset, hence sticky) counter
     * `obs.reset_with_open_spans`; the open spans themselves are
     * owned by their threads' stacks and complete normally into the
     * fresh forest.
     */
    void reset();

    // Used by ScopedSpan: take ownership of a completed root span.
    void addRoot(std::unique_ptr<SpanNode> node);

  private:
    Registry() = default;
    struct Impl;
    Impl &impl() const;
};

// ---- structured trace log ----------------------------------------------

/**
 * True when the category is listed in OWL_TRACE (comma-separated; the
 * special value `all` or `1` enables everything) or was enabled via
 * setTraceCategories().
 */
bool traceEnabled(const char *category);

/** Replace the trace category set, e.g. "cegis,smt" or "all" or "". */
void setTraceCategories(const std::string &csv);

/** Emit one structured event line: `[owl:<category>] <msg>`. */
void traceEvent(const char *category, const std::string &msg);

} // namespace owl::obs

#if OWL_OBS_ENABLED

/**
 * Bump a named counter. The registry lookup happens once per call
 * site; the steady state is a branch + relaxed atomic add. Counters
 * touched by a call site exist in the registry (at value 0) even if
 * recording was disabled for every hit.
 */
#define OWL_COUNTER_ADD(name, delta) \
    do { \
        static ::owl::obs::Counter &owl_obs_c_ = \
            ::owl::obs::Registry::instance().counter(name); \
        if (::owl::obs::enabled()) \
            owl_obs_c_.add(delta); \
    } while (0)

/**
 * Record one value into a named histogram. Same call-site discipline
 * as OWL_COUNTER_ADD: static-cached registry lookup, one branch when
 * recording is disabled. Not for hot loops — accumulate into a
 * LocalHistogram there and merge once per solve call.
 */
#define OWL_HISTOGRAM_RECORD(name, value) \
    do { \
        static ::owl::obs::Histogram &owl_obs_h_ = \
            ::owl::obs::Registry::instance().histogram(name); \
        if (::owl::obs::enabled()) \
            owl_obs_h_.record(value); \
    } while (0)

/** Emit a structured trace event when the category is enabled. */
#define OWL_TRACE_EVENT(category, ...) \
    do { \
        if (::owl::obs::traceEnabled(category)) { \
            ::owl::obs::traceEvent( \
                category, ::owl::detail::formatMsg(__VA_ARGS__)); \
        } \
    } while (0)

#else

#define OWL_COUNTER_ADD(name, delta) \
    do { \
        (void)sizeof(delta); \
    } while (0)
#define OWL_HISTOGRAM_RECORD(name, value) \
    do { \
        (void)sizeof(value); \
    } while (0)
#define OWL_TRACE_EVENT(category, ...) \
    do { \
    } while (0)

#endif // OWL_OBS_ENABLED

#define OWL_COUNTER_INC(name) OWL_COUNTER_ADD(name, 1)

#endif // OWL_OBS_OBS_H
