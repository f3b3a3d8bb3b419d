/**
 * @file
 * Tests for the owl::obs instrumentation layer: the JSON value type,
 * counter accumulation (including across threads), span
 * nesting/ordering, the owl.obs.v2 export schema round-trip (and its
 * v1 compatibility contract), log2 histograms and their per-thread
 * shard merge, the Chrome trace exporter, the runtime disable switch,
 * and a pipeline test asserting that a small CEGIS run produces the
 * expected span tree and SAT counters.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <thread>

#include "core/synthesis.h"
#include "designs/accumulator.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/trace.h"

using namespace owl;
using obs::json::Value;

namespace
{

/** Depth-first search for a span node by name in exported JSON. */
const Value *
findSpan(const Value &spans, const std::string &name)
{
    for (const Value &s : spans.items()) {
        if (s.find("name") && s.find("name")->asString() == name)
            return &s;
        if (const Value *children = s.find("children")) {
            if (const Value *hit = findSpan(*children, name))
                return hit;
        }
    }
    return nullptr;
}

class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!obs::compiledIn())
            GTEST_SKIP() << "owl::obs compiled out";
        obs::setEnabled(true);
        obs::Registry::instance().reset();
    }
};

} // namespace

// ---- JSON value/parser -------------------------------------------------

TEST(ObsJson, ParseScalars)
{
    Value v;
    ASSERT_TRUE(Value::parse("42", v));
    EXPECT_TRUE(v.isInt());
    EXPECT_EQ(v.asInt(), 42);
    ASSERT_TRUE(Value::parse("-3.5", v));
    EXPECT_TRUE(v.isNumber());
    EXPECT_DOUBLE_EQ(v.asDouble(), -3.5);
    ASSERT_TRUE(Value::parse("true", v));
    EXPECT_TRUE(v.isBool());
    ASSERT_TRUE(Value::parse("null", v));
    EXPECT_TRUE(v.isNull());
    ASSERT_TRUE(Value::parse("\"a\\nb\\\"c\\u0041\"", v));
    EXPECT_EQ(v.asString(), "a\nb\"cA");
}

TEST(ObsJson, ParseNested)
{
    Value v;
    std::string err;
    ASSERT_TRUE(Value::parse(
        R"({"a": [1, 2, {"b": "x"}], "c": {}, "d": []})", v, &err))
        << err;
    ASSERT_TRUE(v.isObject());
    const Value *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->size(), 3u);
    EXPECT_EQ(a->items()[0].asInt(), 1);
    EXPECT_EQ(a->items()[2].find("b")->asString(), "x");
}

TEST(ObsJson, RejectsMalformed)
{
    Value v;
    EXPECT_FALSE(Value::parse("{", v));
    EXPECT_FALSE(Value::parse("[1,]", v));
    EXPECT_FALSE(Value::parse("\"unterminated", v));
    EXPECT_FALSE(Value::parse("1 2", v));
    std::string err;
    EXPECT_FALSE(Value::parse("{\"k\": nope}", v, &err));
    EXPECT_NE(err.find("offset"), std::string::npos);
}

TEST(ObsJson, RejectsNestingPastTheDepthLimit)
{
    // 512 levels parse; the 513th opener is a located error, and
    // 300k levels (once a stack overflow) are too.
    Value v;
    std::string err;
    ASSERT_TRUE(Value::parse(std::string(512, '[') + std::string(512, ']'),
                             v, &err))
        << err;
    for (const std::string &text :
         {std::string(513, '[') + std::string(513, ']'),
          std::string(300000, '[')}) {
        EXPECT_FALSE(Value::parse(text, v, &err));
        EXPECT_EQ(err, "json error at offset 512: nesting too deep");
    }
    // Objects count too: each {"k":[ opens two levels in six bytes.
    std::string mixed;
    for (int i = 0; i < 300; i++)
        mixed += "{\"k\":[";
    EXPECT_FALSE(Value::parse(mixed, v, &err));
    EXPECT_EQ(err, "json error at offset 1536: nesting too deep");
}

TEST(ObsJson, DumpParseRoundTrip)
{
    Value v = Value::object();
    v.set("s", "he\"llo\n");
    v.set("i", int64_t{-7});
    v.set("d", 2.25);
    Value arr = Value::array();
    arr.push(Value(true));
    arr.push(Value());
    v.set("a", std::move(arr));

    for (int indent : {0, 2}) {
        Value back;
        std::string err;
        ASSERT_TRUE(Value::parse(v.dump(indent), back, &err)) << err;
        EXPECT_EQ(back.find("s")->asString(), "he\"llo\n");
        EXPECT_EQ(back.find("i")->asInt(), -7);
        EXPECT_DOUBLE_EQ(back.find("d")->asDouble(), 2.25);
        EXPECT_TRUE(back.find("a")->items()[1].isNull());
        // Serialization is stable across a round trip.
        EXPECT_EQ(back.dump(indent), v.dump(indent));
    }
}

// ---- counters ----------------------------------------------------------

TEST_F(ObsTest, CounterAccumulates)
{
    OWL_COUNTER_ADD("test.counter", 3);
    OWL_COUNTER_INC("test.counter");
    auto &reg = obs::Registry::instance();
    EXPECT_EQ(reg.counterValue("test.counter"), 4u);
    EXPECT_EQ(reg.counterValue("test.absent"), 0u);
}

TEST_F(ObsTest, CounterAccumulatesAcrossThreads)
{
    auto &reg = obs::Registry::instance();
    constexpr int kThreads = 4;
    constexpr int kIters = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&reg] {
            for (int i = 0; i < kIters; i++)
                reg.counter("test.mt").add(1);
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(reg.counterValue("test.mt"),
              uint64_t{kThreads} * kIters);
}

TEST_F(ObsTest, ResetZeroesCountersButKeepsReferences)
{
    auto &reg = obs::Registry::instance();
    obs::Counter &c = reg.counter("test.reset");
    c.add(5);
    reg.reset();
    EXPECT_EQ(reg.counterValue("test.reset"), 0u);
    c.add(2); // reference still valid after reset
    EXPECT_EQ(reg.counterValue("test.reset"), 2u);
}

// ---- spans -------------------------------------------------------------

TEST_F(ObsTest, SpanNestingAndOrdering)
{
    {
        obs::ScopedSpan outer("outer");
        outer.attr("k", 1);
        {
            obs::ScopedSpan first("first");
        }
        {
            obs::ScopedSpan second("second");
        }
    }
    {
        obs::ScopedSpan other("other");
    }

    Value doc;
    ASSERT_TRUE(Value::parse(
        obs::Registry::instance().toJsonString(), doc));
    const Value &spans = *doc.find("spans");
    ASSERT_EQ(spans.size(), 2u);
    // Roots appear in completion order; children in start order.
    const Value &outer = spans.items()[0];
    EXPECT_EQ(outer.find("name")->asString(), "outer");
    EXPECT_EQ(spans.items()[1].find("name")->asString(), "other");
    const Value &children = *outer.find("children");
    ASSERT_EQ(children.size(), 2u);
    EXPECT_EQ(children.items()[0].find("name")->asString(), "first");
    EXPECT_EQ(children.items()[1].find("name")->asString(), "second");
    // Children start no earlier than the parent and fit inside it.
    int64_t outer_start = outer.find("start_ns")->asInt();
    int64_t outer_dur = outer.find("dur_ns")->asInt();
    int64_t prev_start = outer_start;
    for (const Value &c : children.items()) {
        int64_t start = c.find("start_ns")->asInt();
        EXPECT_GE(start, prev_start);
        EXPECT_LE(start + c.find("dur_ns")->asInt(),
                  outer_start + outer_dur);
        prev_start = start;
    }
    EXPECT_EQ(outer.find("attrs")->find("k")->asInt(), 1);
}

TEST_F(ObsTest, RuntimeDisableRecordsNothing)
{
    obs::setEnabled(false);
    {
        obs::ScopedSpan span("invisible");
        span.attr("k", 1);
        EXPECT_FALSE(span.active());
    }
    OWL_COUNTER_ADD("test.disabled", 10);
    obs::setEnabled(true);
    auto &reg = obs::Registry::instance();
    EXPECT_EQ(reg.rootSpanCount(), 0u);
    EXPECT_EQ(reg.counterValue("test.disabled"), 0u);
}

TEST_F(ObsTest, TraceCategories)
{
    obs::setTraceCategories("cegis,smt");
    EXPECT_TRUE(obs::traceEnabled("cegis"));
    EXPECT_TRUE(obs::traceEnabled("smt"));
    EXPECT_FALSE(obs::traceEnabled("netlist"));
    obs::setTraceCategories("all");
    EXPECT_TRUE(obs::traceEnabled("netlist"));
    obs::setTraceCategories("");
    EXPECT_FALSE(obs::traceEnabled("cegis"));
}

// ---- export schema -----------------------------------------------------

TEST_F(ObsTest, ExportSchemaRoundTrip)
{
    OWL_COUNTER_ADD("test.export", 9);
    {
        obs::ScopedSpan span("region");
        span.attr("num", 3);
        span.attr("label", "abc");
    }
    std::string text = obs::Registry::instance().toJsonString(
        {{"tool", "test"}, {"design", "none"}});
    Value doc;
    std::string err;
    ASSERT_TRUE(Value::parse(text, doc, &err)) << err;
    EXPECT_EQ(doc.find("schema")->asString(), "owl.obs.v2");
    EXPECT_EQ(doc.find("meta")->find("tool")->asString(), "test");
    EXPECT_EQ(doc.find("counters")->find("test.export")->asInt(), 9);
    const Value *region = findSpan(*doc.find("spans"), "region");
    ASSERT_NE(region, nullptr);
    EXPECT_EQ(region->find("attrs")->find("num")->asInt(), 3);
    EXPECT_EQ(region->find("attrs")->find("label")->asString(),
              "abc");
    EXPECT_GE(region->find("dur_ns")->asInt(), 0);
}

// ---- histograms --------------------------------------------------------

TEST(ObsHistogram, BucketFunction)
{
    using obs::histogramBucket;
    EXPECT_EQ(histogramBucket(0), 0);
    EXPECT_EQ(histogramBucket(1), 1);
    EXPECT_EQ(histogramBucket(2), 2);
    EXPECT_EQ(histogramBucket(3), 2);
    EXPECT_EQ(histogramBucket(4), 3);
    EXPECT_EQ(histogramBucket(1023), 10);
    EXPECT_EQ(histogramBucket(1024), 11);
    EXPECT_EQ(histogramBucket(UINT64_MAX), 63);
}

TEST_F(ObsTest, LocalHistogramRecordsAndMerges)
{
    obs::LocalHistogram local;
    for (uint64_t v : {0u, 1u, 1u, 7u, 4096u})
        local.record(v);
    EXPECT_EQ(local.count, 5u);
    EXPECT_EQ(local.sum, 4105u);
    EXPECT_EQ(local.min, 0u);
    EXPECT_EQ(local.max, 4096u);
    EXPECT_EQ(local.buckets[0], 1u);
    EXPECT_EQ(local.buckets[1], 2u);
    EXPECT_EQ(local.buckets[3], 1u);
    EXPECT_EQ(local.buckets[13], 1u);

    obs::Histogram h;
    h.merge(local);
    h.record(9);
    obs::LocalHistogram snap = h.snapshot();
    EXPECT_EQ(snap.count, 6u);
    EXPECT_EQ(snap.sum, 4114u);
    EXPECT_EQ(snap.min, 0u);
    EXPECT_EQ(snap.max, 4096u);
    EXPECT_EQ(snap.buckets[4], 1u); // the 9
}

TEST_F(ObsTest, HistogramShardMergeDeterministicAcrossJobs)
{
    // Per-thread shards must merge to the same totals no matter how
    // many threads recorded the samples — the shard split is an
    // implementation detail, never visible in the snapshot.
    constexpr uint64_t kSamples = 1000;
    obs::LocalHistogram expected;
    for (uint64_t v = 0; v < kSamples; v++)
        expected.record(v);

    for (int jobs : {1, 2, 4}) {
        obs::Histogram h;
        std::vector<std::thread> threads;
        for (int t = 0; t < jobs; t++) {
            threads.emplace_back([&h, t, jobs] {
                for (int chunk = t; chunk < 10; chunk += jobs) {
                    for (uint64_t v = chunk * (kSamples / 10);
                         v < (chunk + 1) * (kSamples / 10); v++)
                        h.record(v);
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
        obs::LocalHistogram snap = h.snapshot();
        EXPECT_EQ(snap.count, expected.count) << "jobs=" << jobs;
        EXPECT_EQ(snap.sum, expected.sum) << "jobs=" << jobs;
        EXPECT_EQ(snap.min, expected.min) << "jobs=" << jobs;
        EXPECT_EQ(snap.max, expected.max) << "jobs=" << jobs;
        for (int b = 0; b < obs::kHistogramBuckets; b++)
            EXPECT_EQ(snap.buckets[b], expected.buckets[b])
                << "jobs=" << jobs << " bucket=" << b;
    }
}

TEST_F(ObsTest, HistogramExportedInV2Document)
{
    OWL_HISTOGRAM_RECORD("test.hist", 5);
    OWL_HISTOGRAM_RECORD("test.hist", 300);
    Value doc;
    ASSERT_TRUE(Value::parse(
        obs::Registry::instance().toJsonString(), doc));
    const Value *hists = doc.find("histograms");
    ASSERT_NE(hists, nullptr);
    const Value *h = hists->find("test.hist");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->find("count")->asInt(), 2);
    EXPECT_EQ(h->find("sum")->asInt(), 305);
    EXPECT_EQ(h->find("min")->asInt(), 5);
    EXPECT_EQ(h->find("max")->asInt(), 300);
    // Sparse buckets: exactly the two populated log2 bins.
    const Value *buckets = h->find("buckets");
    ASSERT_NE(buckets, nullptr);
    EXPECT_EQ(buckets->size(), 2u);
    EXPECT_EQ(buckets->find("3")->asInt(), 1); // 5 in [4,8)
    EXPECT_EQ(buckets->find("9")->asInt(), 1); // 300 in [256,512)
}

// ---- v1/v2 schema coexistence ------------------------------------------

TEST_F(ObsTest, V2DocumentKeepsV1Shape)
{
    // A v1 consumer reads schema/counters/spans/meta and nothing
    // else; every one of those must keep its exact v1 shape inside a
    // v2 document, with the v2 additions riding alongside.
    OWL_COUNTER_ADD("test.compat", 2);
    OWL_HISTOGRAM_RECORD("test.compat_hist", 1);
    {
        obs::ScopedSpan span("compat");
    }
    Value doc;
    ASSERT_TRUE(Value::parse(obs::Registry::instance().toJsonString(
                                 {{"tool", "test"}}),
                             doc));
    // v1-shaped core.
    ASSERT_TRUE(doc.find("schema")->isString());
    ASSERT_TRUE(doc.find("counters")->isObject());
    EXPECT_EQ(doc.find("counters")->find("test.compat")->asInt(), 2);
    ASSERT_TRUE(doc.find("spans")->isArray());
    const Value *span = findSpan(*doc.find("spans"), "compat");
    ASSERT_NE(span, nullptr);
    EXPECT_TRUE(span->find("start_ns")->isInt());
    EXPECT_TRUE(span->find("dur_ns")->isInt());
    EXPECT_TRUE(span->find("attrs")->isObject());
    EXPECT_TRUE(span->find("children")->isArray());
    EXPECT_EQ(doc.find("meta")->find("tool")->asString(), "test");
    // v2 additions.
    EXPECT_TRUE(doc.find("histograms")->isObject());
    EXPECT_TRUE(doc.find("open_spans")->isInt());
    EXPECT_EQ(doc.find("open_spans")->asInt(), 0);
    EXPECT_TRUE(span->find("lane")->isInt());
}

// ---- reset diagnostics -------------------------------------------------

TEST_F(ObsTest, ResetWithOpenSpansIsLoudButSurvivable)
{
    auto &reg = obs::Registry::instance();
    {
        obs::ScopedSpan open("still-open");

        // toJson while a span is open reports it.
        Value doc;
        ASSERT_TRUE(Value::parse(reg.toJsonString(), doc));
        EXPECT_EQ(doc.find("open_spans")->asInt(), 1);

        reg.reset(); // wipes the forest under the open span
        EXPECT_EQ(reg.counterValue("obs.reset_with_open_spans"), 1u);
    } // the orphaned span completes into the fresh forest

    Value doc;
    ASSERT_TRUE(Value::parse(reg.toJsonString(), doc));
    EXPECT_EQ(doc.find("open_spans")->asInt(), 0);
    // The diagnostic counter is sticky (bumped after the wipe) and
    // the span did not vanish.
    EXPECT_EQ(doc.find("counters")
                  ->find("obs.reset_with_open_spans")
                  ->asInt(),
              1);
    EXPECT_NE(findSpan(*doc.find("spans"), "still-open"), nullptr);
}

// ---- Chrome trace exporter ---------------------------------------------

TEST_F(ObsTest, ChromeTraceWellFormedWithFlowsAndCounters)
{
    // Build a forest with genuinely cross-thread adopted spans (fresh
    // std::threads always get fresh lanes) plus counter samples.
    obs::setCounterSampling(true);
    {
        obs::ScopedSpan parent("dispatch");
        obs::sampleCounter("test.gauge", 7);
        obs::TaskSpanContext ctx = obs::TaskSpanContext::capture();
        std::vector<std::thread> workers;
        for (int t = 0; t < 2; t++) {
            workers.emplace_back([&ctx] {
                obs::TaskSpanScope scope(ctx);
                obs::ScopedSpan span("task");
            });
        }
        for (auto &w : workers)
            w.join();
    }
    obs::setCounterSampling(false);

    auto &reg = obs::Registry::instance();
    Value trace = obs::buildChromeTrace(reg.toJson(), reg.laneNames(),
                                        reg.counterSamples(),
                                        {{"tool", "test"}});
    const Value *events = trace.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    EXPECT_EQ(trace.find("displayTimeUnit")->asString(), "ms");
    EXPECT_EQ(trace.find("otherData")->find("tool")->asString(),
              "test");

    int x_events = 0, s_events = 0, f_events = 0, c_events = 0;
    std::map<int64_t, double> last_ts; // tid -> last X ts
    std::map<int64_t, int> s_by_id, f_by_id;
    std::map<int64_t, int64_t> s_tid, f_tid;
    for (const Value &ev : events->items()) {
        const std::string ph = ev.find("ph")->asString();
        if (ph == "M")
            continue;
        ASSERT_NE(ev.find("ts"), nullptr);
        ASSERT_NE(ev.find("pid"), nullptr);
        ASSERT_NE(ev.find("tid"), nullptr);
        int64_t tid = ev.find("tid")->asInt();
        if (ph == "X") {
            x_events++;
            double ts = ev.find("ts")->asDouble();
            EXPECT_GE(ev.find("dur")->asDouble(), 0.0);
            auto it = last_ts.find(tid);
            if (it != last_ts.end()) {
                EXPECT_GE(ts, it->second) << "lane ts not monotone";
            }
            last_ts[tid] = ts;
        } else if (ph == "s" || ph == "f") {
            int64_t id = ev.find("id")->asInt();
            if (ph == "s") {
                s_events++;
                s_by_id[id]++;
                s_tid[id] = tid;
            } else {
                f_events++;
                f_by_id[id]++;
                f_tid[id] = tid;
                EXPECT_EQ(ev.find("bp")->asString(), "e");
            }
        } else if (ph == "C") {
            c_events++;
            EXPECT_NE(ev.find("args")->find("value"), nullptr);
        }
    }
    // dispatch + 2 tasks; both tasks adopted across lanes.
    EXPECT_EQ(x_events, 3);
    EXPECT_EQ(s_events, 2);
    EXPECT_EQ(f_events, 2);
    EXPECT_EQ(c_events, 1);
    for (const auto &[id, n] : s_by_id) {
        EXPECT_EQ(n, 1);
        EXPECT_EQ(f_by_id[id], 1);
        EXPECT_NE(s_tid[id], f_tid[id])
            << "flow must cross lanes";
    }
}

// ---- pipeline ----------------------------------------------------------

TEST_F(ObsTest, CegisRunProducesSpanTreeAndSatCounters)
{
    designs::CaseStudy cs = designs::makeAccumulator();
    synth::SynthesisResult r =
        synth::synthesizeControl(cs.sketch, cs.spec, cs.alpha);
    ASSERT_EQ(r.status, synth::SynthStatus::Ok);

    Value doc;
    ASSERT_TRUE(Value::parse(
        obs::Registry::instance().toJsonString(), doc));
    const Value &spans = *doc.find("spans");
    ASSERT_GT(spans.size(), 0u);

    // The tree must contain the full nesting chain: synthesize >
    // cegis > cegis.iter > verify > smt.checkSat > sat.solve. Checks
    // that are refuted trivially during bit-blasting never reach the
    // SAT solver, so search for a checkSat node that did.
    const Value *cegis = findSpan(spans, "cegis");
    ASSERT_NE(cegis, nullptr);
    const Value *iter = findSpan(*cegis->find("children"),
                                 "cegis.iter");
    ASSERT_NE(iter, nullptr) << "cegis span has no cegis.iter child";
    EXPECT_NE(findSpan(*iter->find("children"), "smt.checkSat"),
              nullptr);
    const Value *solve = findSpan(spans, "sat.solve");
    ASSERT_NE(solve, nullptr);
    bool solve_under_check = false;
    std::function<void(const Value &)> scan =
        [&](const Value &list) {
            for (const Value &s : list.items()) {
                if (s.find("name")->asString() == "smt.checkSat" &&
                    findSpan(*s.find("children"), "sat.solve"))
                    solve_under_check = true;
                scan(*s.find("children"));
            }
        };
    scan(spans);
    EXPECT_TRUE(solve_under_check)
        << "no smt.checkSat span contains a sat.solve child";

    // SAT effort is visible through the registry.
    const Value &counters = *doc.find("counters");
    EXPECT_GT(counters.find("sat.propagations")->asInt(), 0);
    EXPECT_GT(counters.find("sat.decisions")->asInt(), 0);
    EXPECT_GT(counters.find("smt.checks")->asInt(), 0);
    EXPECT_GT(counters.find("cegis.iterations")->asInt(), 0);
    EXPECT_EQ(counters.find("cegis.iterations")->asInt(),
              r.cegisIterations);
}

// ---- cross-thread span adoption ----------------------------------------

TEST_F(ObsTest, WorkerSpansAdoptedUnderDispatchingSpan)
{
    {
        obs::ScopedSpan parent("parent");
        // Captured on the dispatching thread while "parent" is open.
        obs::TaskSpanContext ctx = obs::TaskSpanContext::capture();
        std::vector<std::thread> workers;
        for (int t = 0; t < 4; t++) {
            workers.emplace_back([&ctx, t] {
                obs::TaskSpanScope scope(ctx);
                obs::ScopedSpan span("task");
                span.attr("n", t);
                obs::ScopedSpan inner("task.inner");
            });
        }
        for (auto &w : workers)
            w.join();
    }

    Value doc;
    ASSERT_TRUE(Value::parse(
        obs::Registry::instance().toJsonString(), doc));
    const Value &spans = *doc.find("spans");
    // Every worker span was adopted: one root, four children.
    ASSERT_EQ(spans.size(), 1u);
    const Value &parent = spans.items()[0];
    EXPECT_EQ(parent.find("name")->asString(), "parent");
    const Value &children = *parent.find("children");
    ASSERT_EQ(children.size(), 4u);
    int64_t prev = 0;
    for (const Value &c : children.items()) {
        EXPECT_EQ(c.find("name")->asString(), "task");
        // Adopted children are merged sorted by start time.
        int64_t start = c.find("start_ns")->asInt();
        EXPECT_GE(start, prev);
        prev = start;
        // Nesting inside the worker thread is preserved.
        EXPECT_NE(findSpan(*c.find("children"), "task.inner"),
                  nullptr);
    }
}

TEST_F(ObsTest, LateWorkerFallsBackToRootWhenParentClosed)
{
    obs::TaskSpanContext ctx;
    {
        obs::ScopedSpan parent("parent");
        ctx = obs::TaskSpanContext::capture();
        EXPECT_TRUE(ctx.valid());
    } // parent closes before the worker runs
    std::thread late([&ctx] {
        obs::TaskSpanScope scope(ctx);
        obs::ScopedSpan span("late-task");
    });
    late.join();

    Value doc;
    ASSERT_TRUE(Value::parse(
        obs::Registry::instance().toJsonString(), doc));
    const Value &spans = *doc.find("spans");
    // The adoption slot was already merged, so the late span becomes
    // its own root instead of being lost.
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans.items()[0].find("name")->asString(), "parent");
    EXPECT_EQ(spans.items()[1].find("name")->asString(), "late-task");
    EXPECT_EQ(spans.items()[0].find("children")->size(), 0u);
}

TEST_F(ObsTest, InvalidContextIsNoOp)
{
    // capture() outside any span yields an invalid context; scoping it
    // changes nothing about where spans land.
    obs::TaskSpanContext ctx = obs::TaskSpanContext::capture();
    EXPECT_FALSE(ctx.valid());
    {
        obs::TaskSpanScope scope(ctx);
        obs::ScopedSpan span("solo");
    }
    Value doc;
    ASSERT_TRUE(Value::parse(
        obs::Registry::instance().toJsonString(), doc));
    const Value &spans = *doc.find("spans");
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans.items()[0].find("name")->asString(), "solo");
}

TEST_F(ObsTest, ConcurrentSynthesisTasksProduceCoherentTree)
{
    // The parallel strategy end-to-end: spans recorded by worker threads
    // must all land under the dispatching "synthesize" span, and the
    // aggregate counters must match the result exactly as they do in
    // the sequential pipeline test.
    designs::CaseStudy cs = designs::makeAccumulator();
    synth::SynthesisOptions opts;
    opts.strategy = synth::Strategy::PerInstructionParallel;
    opts.jobs = 4;
    synth::SynthesisResult r =
        synth::synthesizeControl(cs.sketch, cs.spec, cs.alpha, opts);
    ASSERT_EQ(r.status, synth::SynthStatus::Ok);

    Value doc;
    ASSERT_TRUE(Value::parse(
        obs::Registry::instance().toJsonString(), doc));
    const Value &spans = *doc.find("spans");
    ASSERT_EQ(spans.size(), 1u) << "worker spans leaked to the root";
    const Value &root = spans.items()[0];
    EXPECT_EQ(root.find("name")->asString(), "synthesize");
    // One adopted cegis span per instruction.
    const Value &children = *root.find("children");
    size_t cegis_count = 0;
    for (const Value &c : children.items())
        cegis_count += c.find("name")->asString() == "cegis";
    EXPECT_EQ(cegis_count, cs.spec.instrs().size());
    const Value &counters = *doc.find("counters");
    EXPECT_EQ(counters.find("cegis.iterations")->asInt(),
              r.cegisIterations);
    EXPECT_GT(counters.find("exec.tasks")->asInt(), 0);
}

// ---- per-request scopes (serve) ----------------------------------------

TEST_F(ObsTest, RequestScopeCapturesOnlyItsOwnCounterDeltas)
{
    obs::Registry::instance().counter("rq.counter").add(5);
    {
        obs::RequestScope scope("request-a");
        ASSERT_TRUE(scope.active());
        OWL_COUNTER_ADD("rq.counter", 3);
        EXPECT_EQ(scope.counterDelta("rq.counter"), 3u);
        EXPECT_EQ(scope.counterDelta("rq.other"), 0u);
    }
    {
        // A fresh scope starts from zero deltas even though the
        // process-wide counter kept its value.
        obs::RequestScope scope("request-b");
        EXPECT_EQ(scope.counterDelta("rq.counter"), 0u);
        OWL_COUNTER_ADD("rq.counter", 2);
        EXPECT_EQ(scope.counterDelta("rq.counter"), 2u);
    }
    EXPECT_EQ(obs::Registry::instance().counterValue("rq.counter"),
              10u);
}

TEST_F(ObsTest, RequestScopeDeltasAreThreadIsolated)
{
    // Two concurrent scopes on different threads must not see each
    // other's increments (the serve invariant: one request runs on
    // one session thread).
    auto run = [](uint64_t delta, uint64_t *out) {
        obs::RequestScope scope("request");
        OWL_COUNTER_ADD("rq.threaded", delta);
        *out = scope.counterDelta("rq.threaded");
    };
    uint64_t a = 0, b = 0;
    std::thread ta(run, 7, &a);
    std::thread tb(run, 11, &b);
    ta.join();
    tb.join();
    EXPECT_EQ(a, 7u);
    EXPECT_EQ(b, 11u);
    EXPECT_EQ(obs::Registry::instance().counterValue("rq.threaded"),
              18u);
}

TEST_F(ObsTest, RequestScopeExportsItsSpanTree)
{
    obs::RequestScope scope("request");
    {
        obs::ScopedSpan outer("outer");
        obs::ScopedSpan inner("inner");
    }
    Value doc = scope.toJson({{"tool", "test"}});
    EXPECT_EQ(doc.find("schema")->asString(), "owl.obs.v2");
    EXPECT_EQ(doc.find("meta")->find("tool")->asString(), "test");
    const Value &spans = *doc.find("spans");
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans.items()[0].find("name")->asString(), "request");
    const Value *outer = findSpan(spans, "outer");
    ASSERT_NE(outer, nullptr);
    EXPECT_NE(findSpan(*outer->find("children"), "inner"), nullptr);
}

TEST_F(ObsTest, RequestScopeForceClosesAbandonedSpans)
{
    // Simulate a request that threw mid-span: spans above the scope
    // root are still open when the request finishes. forceClose must
    // close them (marking them), book the counter, and leave the
    // thread's span stack clean for the next request.
    {
        obs::RequestScope scope("request");
        auto *a = new obs::ScopedSpan("leaked-outer");
        auto *b = new obs::ScopedSpan("leaked-inner");
        EXPECT_EQ(scope.openSpans(), 2u);
        size_t closed = scope.forceCloseAbandoned();
        EXPECT_EQ(closed, 2u);
        EXPECT_EQ(scope.openSpans(), 0u);
        EXPECT_EQ(scope.abandonedSpans(), 2u);

        Value doc = scope.toJson();
        const Value *leaked = findSpan(*doc.find("spans"),
                                       "leaked-outer");
        ASSERT_NE(leaked, nullptr);
        EXPECT_EQ(leaked->find("attrs")->find("abandoned")->asInt(),
                  1);
        // The ScopedSpan objects themselves are dead weight now;
        // their destructors must not double-close.
        delete b;
        delete a;
    }
    EXPECT_EQ(obs::Registry::instance().counterValue(
                  "obs.request.spans_abandoned"),
              2u);

    // The next scope on this thread is unaffected.
    obs::RequestScope scope("request-2");
    {
        obs::ScopedSpan ok("clean");
    }
    EXPECT_EQ(scope.openSpans(), 0u);
    EXPECT_EQ(scope.forceCloseAbandoned(), 0u);
}

TEST_F(ObsTest, RequestScopeWritesJsonFile)
{
    std::string path =
        testing::TempDir() + "owl_request_scope_test.json";
    {
        obs::RequestScope scope("request");
        OWL_COUNTER_INC("rq.file");
        ASSERT_TRUE(scope.writeJsonFile(path, {{"id", "j1"}}));
    }
    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    std::stringstream ss;
    ss << f.rdbuf();
    Value doc;
    ASSERT_TRUE(Value::parse(ss.str(), doc));
    EXPECT_EQ(doc.find("meta")->find("id")->asString(), "j1");
    EXPECT_EQ(doc.find("counters")->find("rq.file")->asInt(), 1);
    ::remove(path.c_str());
}
