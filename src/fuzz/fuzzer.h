/**
 * @file
 * The `owl fuzz` driver: seeded generation -> five oracles ->
 * greedy reduction of anything that diverges.
 *
 * Deterministic end to end: run i of a session seeded S uses seed
 * S + i for both generation and the co-simulation input vectors, so
 * `owl fuzz --seed S --runs N` reproduces exactly, and any finding
 * can be replayed from its seed alone (or from the minimized `.owl`
 * fixture the reducer emits).
 *
 * Counters (obs): fuzz.runs, fuzz.divergences, fuzz.reduce.steps,
 * fuzz.oracle.{roundtrip,cosim,preprocess,incremental}.
 */

#ifndef OWL_FUZZ_FUZZER_H
#define OWL_FUZZ_FUZZER_H

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/oracles.h"

namespace owl::fuzz
{

/** Options for one fuzzing session. */
struct FuzzOptions
{
    uint64_t seed = 1;
    int runs = 100;
    /** Minimize findings with the greedy reducer. */
    bool reduce = true;
    /** Reducer candidate budget per finding. */
    int reduceSteps = 400;
    int cosimVectors = 3;
    int cosimCycles = 6;
    /** Base solver policy (OracleOptions::solver). */
    smt::SolverPolicy solver{.checkProofs = true};
    /** Print per-run progress to stderr. */
    bool verbose = false;
    /** Stop after this many findings (0 = never). */
    int maxFindings = 0;
};

/** One divergence, with everything needed to act on it. */
struct Finding
{
    uint64_t seed = 0;
    std::string scenario;
    std::string oracle;
    std::string detail;
    std::string bundleText;     ///< full generated bundle
    std::string minimizedText;  ///< reducer output (== bundleText if off)
};

/** Session summary. */
struct FuzzReport
{
    int runs = 0;
    int divergences = 0;
    std::vector<Finding> findings;
};

/** Run a fuzzing session. */
FuzzReport runFuzz(const FuzzOptions &opt);

/**
 * Replay one corpus bundle (the `fuzz_regressions` path and
 * `owl fuzz --replay`): parse, run all five oracles, return the
 * divergences (empty = regression fixed and still fixed).
 */
std::vector<Divergence> replayBundleText(const std::string &text,
                                         const OracleOptions &opt);

} // namespace owl::fuzz

#endif // OWL_FUZZ_FUZZER_H
