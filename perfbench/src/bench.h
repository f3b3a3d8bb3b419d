/**
 * @file
 * Shared pieces of owl_perfbench, the owl benchmark: arguments, pinned
 * inputs, the correctness ledger, metric records and small timing and
 * statistics helpers. See perfbench/README.md for what each workload
 * and metric means.
 */

#ifndef OWL_PERFBENCH_BENCH_H
#define OWL_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/control_union.h"
#include "designs/case_study.h"
#include "obs/json.h"

namespace pb
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median; 0 for an empty sample. */
double median(std::vector<double> v);
/** Linear-interpolated quantile q in [0,1]; 0 for an empty sample. */
double quantile(std::vector<double> v, double q);
/** Peak resident set of this process, in MB. */
double peakRssMb();
/** Hardware threads available: the `nproc` of the run. */
int nprocs();

/**
 * CPU slots: the CPUs the process could run on at start-up. The CPUs
 * of a shared box do not run equally fast, and which one the scheduler
 * picks differs from run to run; single-threaded work is therefore
 * rotated over every slot and reduced per slot (slotMean), so a run's
 * figure does not depend on where it landed.
 */
int cpuSlots();
/** Pin the calling thread to CPU slot `slot` (mod cpuSlots()), or
 * let it run on every slot again when `slot` is negative. Threads
 * started while pinned inherit the pin. */
void pinCpu(int slot);
/** Mean over CPU slots of each slot's median sample. */
double slotMean(const std::map<int, std::vector<double>> &bySlot);

/** Command-line arguments of owl_perfbench. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string pinsPath = "perfbench/pins.json";
    std::string workDir = ".bench_build/perfbench/run";
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
    /** Flip one recorded hole digest (self-test of the checks). */
    bool corruptDigest = false;
    /** Print freshly computed pins instead of running a workload. */
    bool recordPins = false;
};

/** Content hashes and hole digests recorded in perfbench/pins.json. */
struct Pins
{
    struct Design
    {
        std::string sketch, spec, alpha;
        std::string holesPin;   ///< PerInstruction, pin-first
        std::string holesNoPin; ///< no pin: parallel strategy and serve
    };
    std::map<std::string, Design> designs;
    struct Bundle
    {
        uint64_t fuzzSeed = 0;
        std::string text, holesPin;
    };
    std::vector<Bundle> bundles;
    /** serve-mix: the cache's bytes after each design's warm-up. */
    std::map<std::string, uint64_t> serveCacheBytes;
};

bool loadPins(const std::string &path, Pins &out, std::string &err);

/** FNV-1a of a string, as 16 hex digits. */
std::string hashText(const std::string &s);
/** Digest of per-instruction holes, in solve order. */
std::string holesDigest(const owl::synth::PerInstrResults &r);

/**
 * Correctness ledger: every checked operation is attempted once and
 * fails if any of its checks fails.
 */
struct Ledger
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors; ///< first few failure messages

    /** Record one operation; `err` empty means it passed. */
    void record(const std::string &err);
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Everything a workload run hands back to main(). */
struct RunResult
{
    std::vector<Metric> endToEnd; ///< untraced-mode metrics
    std::vector<Metric> perLayer; ///< traced-mode metrics
    int passes = 0;               ///< timed passes (both modes)
    int tracedPasses = 0;
    owl::obs::json::Value detail = owl::obs::json::Value::object();
};

/** Set-up repetitions per run, rotated over the CPU slots. */
constexpr int kSetupReps = 32;

/**
 * Time `build` kSetupReps times, repetition r pinned to CPU slot r,
 * into `reps` (seconds); returns setup_s, the slotMean of them.
 */
double timeSetup(const std::function<void()> &build,
                 std::vector<double> &reps);

RunResult runRegistry(const Args &a, const Pins &pins, Ledger &ledger,
                      bool parallel);
RunResult runBundles(const Args &a, const Pins &pins, Ledger &ledger);
RunResult runServeMix(const Args &a, const Pins &pins, Ledger &ledger);

/**
 * Throw InputsChanged unless the printed sketch, spec and alpha of a
 * registry design hash to the pinned values.
 */
void checkDesignPins(const std::string &name,
                     const owl::designs::CaseStudy &cs, const Pins &pins);

/** Compute pins.json contents from the current sources. */
owl::obs::json::Value recordPins();
/** The "serve" section of pins.json: serve-mix's warm-up cache bytes. */
owl::obs::json::Value recordServePins();

/** Thrown when a pinned input's content hash no longer matches. */
struct InputsChanged
{
    std::string what;
};

} // namespace pb

#endif // OWL_PERFBENCH_BENCH_H
