/**
 * @file
 * Tests for owl::exec — the ordered runner, the default job count,
 * the bounded queue, and the determinism contract of
 * Strategy::PerInstructionParallel (bit-identical hole values to a
 * sequential no-pinning run).
 */

#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/synthesis.h"
#include "designs/accumulator.h"
#include "designs/riscv_single_cycle.h"
#include "exec/jobs.h"
#include "exec/queue.h"
#include "exec/run_in_order.h"

using namespace owl;
using namespace owl::exec;
using namespace owl::synth;

// ---- ordered runner ----------------------------------------------------

namespace
{

/** Spin until `flag` is set; false if it stays clear for 10 s. */
bool
awaitCancel(const std::atomic<bool> *flag)
{
    auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!flag->load()) {
        if (std::chrono::steady_clock::now() > give_up)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

auto always = [](const auto &) { return true; };

} // namespace

TEST(ExecPool, SubmitReturnsResults)
{
    for (int jobs : {1, 4}) {
        SCOPED_TRACE(jobs);
        std::vector<int> out = runInOrder(
            100, jobs, nullptr,
            [](size_t k, const std::atomic<bool> *) {
                return static_cast<int>(k * k);
            },
            always);
        ASSERT_EQ(out.size(), 100u);
        for (int i = 0; i < 100; i++)
            EXPECT_EQ(out[i], i * i);
    }
}

TEST(ExecPool, PropagatesExceptions)
{
    for (int jobs : {1, 2}) {
        SCOPED_TRACE(jobs);
        auto task = [](size_t k, const std::atomic<bool> *) -> int {
            if (k == 5)
                throw std::runtime_error("boom");
            return 0;
        };
        EXPECT_THROW(runInOrder(8, jobs, nullptr, task, always),
                     std::runtime_error);
        // A rejected result before the throwing task decides the run.
        std::vector<int> out = runInOrder(
            8, jobs, nullptr, task, [](int) { return false; });
        EXPECT_EQ(out.size(), 1u);
    }
}

TEST(ExecPool, FailureCancelsOnlyLaterTasks)
{
    // Task 3 fails at once. Every later task waits for its cancel flag,
    // so the run ends only if the failure sets those flags; earlier
    // tasks must never see theirs.
    constexpr size_t n = 8;
    std::vector<std::atomic<int>> seen(n);
    std::vector<bool> out = runInOrder(
        n, 4, nullptr,
        [&](size_t k, const std::atomic<bool> *cancel) {
            if (k > 3)
                seen[k] = awaitCancel(cancel) ? 1 : -1;
            else
                seen[k] = cancel->load() ? 1 : 0;
            return k != 3;
        },
        [](bool r) { return r; });
    EXPECT_EQ(out, std::vector<bool>({true, true, true, false}));
    for (size_t k = 0; k < n; k++)
        EXPECT_EQ(seen[k].load(), k > 3 ? 1 : 0) << "task " << k;
}

TEST(ExecPool, RelaysCallerCancellation)
{
    // Inline, every task polls the caller's own flag.
    std::atomic<bool> caller{false};
    std::vector<const std::atomic<bool> *> flags = runInOrder(
        3, 1, &caller,
        [](size_t, const std::atomic<bool> *c) { return c; }, always);
    for (const std::atomic<bool> *f : flags)
        EXPECT_EQ(f, &caller);

    // On threads, each task has its own flag, and cancelling the
    // caller's sets all of them.
    std::thread canceller([&caller] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        caller = true;
    });
    std::vector<bool> cancelled = runInOrder(
        6, 3, &caller,
        [&caller](size_t, const std::atomic<bool> *c) {
            return c != &caller && awaitCancel(c);
        },
        always);
    canceller.join();
    EXPECT_EQ(cancelled, std::vector<bool>(6, true));
}

TEST(ExecPool, DefaultJobsIsPositive) { EXPECT_GE(defaultJobs(), 1); }

namespace
{

/** Sets OWL_JOBS (nullopt: unsets it) for one scope, then restores it. */
class ScopedJobsEnv
{
  public:
    explicit ScopedJobsEnv(std::optional<std::string> value)
    {
        if (const char *old = std::getenv("OWL_JOBS"))
            saved = old;
        set(value);
    }
    ~ScopedJobsEnv() { set(saved); }

  private:
    std::optional<std::string> saved;

    static void set(const std::optional<std::string> &value)
    {
        if (value)
            setenv("OWL_JOBS", value->c_str(), 1);
        else
            unsetenv("OWL_JOBS");
    }
};

} // namespace

TEST(ExecPool, DefaultJobsHonoursAffinityMask)
{
    ScopedJobsEnv env(std::nullopt);
    cpu_set_t saved;
    CPU_ZERO(&saved);
    ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
    int cpu = 0;
    while (!CPU_ISSET(cpu, &saved))
        cpu++;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
    int pinned = defaultJobs();
    ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);
    EXPECT_EQ(pinned, 1);
    EXPECT_EQ(defaultJobs(), CPU_COUNT(&saved));
}

TEST(ExecPool, DefaultJobsParsesOwlJobsStrictly)
{
    int unset;
    {
        ScopedJobsEnv env(std::nullopt);
        unset = defaultJobs();
    }
    {
        ScopedJobsEnv env("3");
        EXPECT_EQ(defaultJobs(), 3);
    }
    {
        ScopedJobsEnv env("1024");
        EXPECT_EQ(defaultJobs(), 1024);
    }
    // Anything but a whole decimal integer in [1, 1024] counts as
    // unset, as the CLI's usage check would have it.
    for (const char *bad : {"4x", "abc", "0", "-3", "2000", "", "+2",
                            " 2"}) {
        SCOPED_TRACE(bad);
        ScopedJobsEnv env(bad);
        EXPECT_EQ(defaultJobs(), unset);
    }
}

// ---- parallel synthesis determinism ------------------------------------

namespace
{

void
expectIdenticalResults(const SynthesisResult &a,
                       const SynthesisResult &b)
{
    ASSERT_EQ(a.status, SynthStatus::Ok);
    ASSERT_EQ(b.status, SynthStatus::Ok);
    // Same total work: without pinning both run the exact same CEGIS
    // trajectory per instruction.
    EXPECT_EQ(a.cegisIterations, b.cegisIterations);
    ASSERT_EQ(a.perInstr.size(), b.perInstr.size());
    for (size_t i = 0; i < a.perInstr.size(); i++) {
        EXPECT_EQ(a.perInstr[i].first, b.perInstr[i].first);
        const HoleValues &ha = a.perInstr[i].second;
        const HoleValues &hb = b.perInstr[i].second;
        ASSERT_EQ(ha.size(), hb.size());
        for (const auto &[name, va] : ha) {
            auto it = hb.find(name);
            ASSERT_NE(it, hb.end()) << name;
            EXPECT_TRUE(va == it->second)
                << a.perInstr[i].first << "." << name;
        }
    }
}

} // namespace

TEST(ExecSynth, ParallelMatchesSequentialAccumulator)
{
    designs::CaseStudy seq = designs::makeAccumulator();
    SynthesisOptions seq_opts;
    seq_opts.pinFirst = false; // the contract's sequential reference
    SynthesisResult rs =
        synthesizeControl(seq.sketch, seq.spec, seq.alpha, seq_opts);

    designs::CaseStudy par = designs::makeAccumulator();
    SynthesisOptions par_opts;
    par_opts.strategy = Strategy::PerInstructionParallel;
    par_opts.jobs = 4;
    SynthesisResult rp =
        synthesizeControl(par.sketch, par.spec, par.alpha, par_opts);

    expectIdenticalResults(rs, rp);
    EXPECT_EQ(verifyDesign(seq.sketch, seq.spec, seq.alpha),
              SynthStatus::Ok);
    EXPECT_EQ(verifyDesign(par.sketch, par.spec, par.alpha),
              SynthStatus::Ok);
}

TEST(ExecSynth, ParallelMatchesSequentialRiscv)
{
    using designs::RiscvVariant;
    designs::CaseStudy seq =
        designs::makeRiscvSingleCycle(RiscvVariant::RV32I);
    SynthesisOptions seq_opts;
    seq_opts.pinFirst = false;
    SynthesisResult rs =
        synthesizeControl(seq.sketch, seq.spec, seq.alpha, seq_opts);

    designs::CaseStudy par =
        designs::makeRiscvSingleCycle(RiscvVariant::RV32I);
    SynthesisOptions par_opts;
    par_opts.strategy = Strategy::PerInstructionParallel;
    par_opts.jobs = 4;
    SynthesisResult rp =
        synthesizeControl(par.sketch, par.spec, par.alpha, par_opts);

    expectIdenticalResults(rs, rp);
    EXPECT_EQ(verifyDesign(par.sketch, par.spec, par.alpha),
              SynthStatus::Ok);
}

TEST(ExecSynth, ParallelReportsFirstFailureInInstructionOrder)
{
    // maxIterations = 0 fails every instruction immediately; the
    // deterministic merge must still attribute the failure to the
    // first instruction, like the sequential path does.
    designs::CaseStudy seq = designs::makeAccumulator();
    SynthesisOptions seq_opts;
    seq_opts.pinFirst = false;
    seq_opts.maxIterations = 0;
    SynthesisResult rs =
        synthesizeControl(seq.sketch, seq.spec, seq.alpha, seq_opts);

    designs::CaseStudy par = designs::makeAccumulator();
    SynthesisOptions par_opts;
    par_opts.strategy = Strategy::PerInstructionParallel;
    par_opts.jobs = 4;
    par_opts.maxIterations = 0;
    SynthesisResult rp =
        synthesizeControl(par.sketch, par.spec, par.alpha, par_opts);

    EXPECT_EQ(rs.status, SynthStatus::IterLimit);
    EXPECT_EQ(rp.status, SynthStatus::IterLimit);
    EXPECT_EQ(rp.failedInstr, rs.failedInstr);
}

// ---- bounded queue -----------------------------------------------------

TEST(ExecQueue, FifoOrderAndAccounting)
{
    BoundedQueue<int> q(4);
    EXPECT_EQ(q.capacity(), 4u);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_FALSE(q.tryPop().has_value());
}

TEST(ExecQueue, TryPushRespectsCapacity)
{
    BoundedQueue<int> q(2);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    EXPECT_FALSE(q.tryPush(3));
    q.pop();
    EXPECT_TRUE(q.tryPush(3));
}

TEST(ExecQueue, CloseDrainsThenSignalsShutdown)
{
    BoundedQueue<int> q(4);
    q.push(1);
    q.push(2);
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.push(3));     // intake refused...
    EXPECT_FALSE(q.tryPush(3));
    EXPECT_EQ(q.pop(), 1);       // ...but queued items still drain
    EXPECT_EQ(q.pop(), 2);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(ExecQueue, CloseWakesBlockedConsumers)
{
    BoundedQueue<int> q(1);
    std::thread consumer([&] {
        EXPECT_FALSE(q.pop().has_value());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();
    consumer.join();
}

TEST(ExecQueue, BlockedProducerResumesWhenSpaceFrees)
{
    BoundedQueue<int> q(1);
    EXPECT_TRUE(q.push(1));
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        EXPECT_TRUE(q.push(2)); // blocks until the consumer pops
        pushed = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(pushed.load());
    EXPECT_EQ(q.pop(), 1);
    producer.join();
    EXPECT_TRUE(pushed.load());
    EXPECT_EQ(q.pop(), 2);
}

TEST(ExecQueue, ConcurrentProducersConsumersLoseNothing)
{
    // 4 producers x 250 items through a tiny queue into 4 consumers:
    // every item arrives exactly once (the TSan workout).
    BoundedQueue<int> q(8);
    constexpr int kProducers = 4, kPerProducer = 250;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; p++)
        producers.emplace_back([&q, p] {
            for (int i = 0; i < kPerProducer; i++)
                ASSERT_TRUE(q.push(p * kPerProducer + i));
        });
    std::mutex seen_mu;
    std::vector<int> seen;
    std::vector<std::thread> consumers;
    for (int c = 0; c < 4; c++)
        consumers.emplace_back([&] {
            while (auto v = q.pop()) {
                std::lock_guard<std::mutex> lock(seen_mu);
                seen.push_back(*v);
            }
        });
    for (auto &t : producers)
        t.join();
    q.close();
    for (auto &t : consumers)
        t.join();
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(),
              static_cast<size_t>(kProducers * kPerProducer));
    for (int i = 0; i < kProducers * kPerProducer; i++)
        EXPECT_EQ(seen[i], i);
}
