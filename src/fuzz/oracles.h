/**
 * @file
 * The five differential oracles of `owl fuzz`.
 *
 *  1. Round-trip: parse(print(bundle)) prints identically, for all
 *     three sections (design, spec, alpha).
 *  2. Co-simulation: on the synthesized (hole-free) design, the
 *     concrete interpreter, the compiled netlist simulator, the
 *     OPTIMIZED netlist simulator, and the symbolic evaluator with
 *     all-concrete pins must agree on every output, register, and
 *     memory word, every cycle, over random input vectors.
 *  3. Preprocess: synthesis with --preprocess and --no-preprocess
 *     must produce bit-identical per-instruction hole solutions
 *     (lexmin canonicalization makes this exact, not approximate).
 *  4. Incremental: synthesis with long-lived incremental SAT sessions
 *     and with fresh solvers per iteration must also be bit-identical.
 *  5. Ackermann: synthesis with lazy lemmas-on-demand memory
 *     congruence (the default) and with the eager full pair set
 *     (--eager-ackermann) must also be bit-identical — lexmin runs
 *     only on congruence-clean models, so the refinement trajectory
 *     must not leak into the holes.
 *
 * Every synthesis run executes with DRAT proof checking enabled, so
 * each UNSAT verdict inside CEGIS — including every Unsat reached
 * through the lazy refinement loop — is replayed through the forward
 * proof checker as a side effect of oracles 3-5.
 *
 * A generated problem failing to synthesize at all is reported as a
 * fifth kind of finding ("synth"): the generator guarantees
 * solvability by construction, so Unsat/timeout means either a
 * generator bug or a pipeline bug — both worth a reduced fixture.
 */

#ifndef OWL_FUZZ_ORACLES_H
#define OWL_FUZZ_ORACLES_H

#include <cstdint>
#include <string>
#include <vector>

#include "smt/solver.h"
#include "text/bundle.h"

namespace owl::fuzz
{

/** One oracle disagreement. */
struct Divergence
{
    std::string oracle;  ///< roundtrip | cosim | preprocess | incremental | ackermann | synth
    std::string detail;
};

/** Knobs for one oracle pass. */
struct OracleOptions
{
    /** Random input vectors per co-simulation. */
    int cosimVectors = 3;
    /** Cycles simulated per vector. */
    int cosimCycles = 6;
    /**
     * Base solver policy for every synthesis the oracles run; each
     * oracle then varies preprocess or eagerAckermann on a copy. DRAT
     * replay on every UNSAT is on by default (`owl fuzz
     * --no-check-proofs` turns it off).
     */
    smt::SolverPolicy solver{.checkProofs = true};
    /** Seed for the co-simulation input vectors. */
    uint64_t seed = 0;
};

/** Oracle 1 only (works on incomplete bundles too). */
std::vector<Divergence> checkRoundTrip(const text::Bundle &b);

/**
 * All five oracles. Oracles 2-5 need a complete bundle (design +
 * spec + alpha); on an incomplete one only the round trip runs.
 * Returns every divergence found (empty = clean).
 */
std::vector<Divergence> checkBundle(const text::Bundle &b,
                                    const OracleOptions &opt);

/** Render a divergence list for logs/fixtures. */
std::string describeDivergences(const std::vector<Divergence> &ds);

} // namespace owl::fuzz

#endif // OWL_FUZZ_ORACLES_H
