/**
 * @file
 * The QF_BV satisfiability interface used by the synthesis engine.
 *
 * A Query is a conjunction of 1-bit terms. checkSat() answers it with
 * the one SMT query engine, smt::IncrementalContext (smt/incremental.h):
 * it makes a context, asserts the query as one permanent batch, seals
 * it and checks once. A sealed context freezes only the bits its lazy
 * Ackermann lemmas are built over, so the CNF simplifier may eliminate
 * everything else (DESIGN.md §12.3).
 *
 * Ackermann congruence covers the uninterpreted memory base reads
 * (the paper models memories as an uninterpreted read function plus
 * a write association list; Ackermann expansion removes the UF). By
 * default congruences are instantiated lazily — solve, scan the model
 * for read-consistency violations, assert only the violated instances
 * into the same solver, re-solve (smt/ackermann.h, DESIGN.md §14);
 * SolverPolicy::eagerAckermann restores the up-front quadratic
 * expansion.
 *
 * This file also holds what every query shares: Model, SolverPolicy,
 * SolveLimits and CheckStats.
 */

#ifndef OWL_SMT_SOLVER_H
#define OWL_SMT_SOLVER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <unordered_map>

#include "sat/solver.h"
#include "smt/term.h"

namespace owl::smt
{

/** Outcome of a checkSat call. */
enum class CheckResult : uint8_t { Sat, Unsat, Unknown };

/**
 * A model for a satisfiable query: values for every Var and BaseRead
 * leaf that appeared in the query.
 */
class Model
{
  public:
    /** Value of a variable (by var id); zero if absent. */
    BitVec varValue(const TermTable &tt, int var_id) const;

    /** Convert to an Assignment usable with evalTerm. */
    Assignment toAssignment(const TermTable &tt) const;

    /** Raw leaf values keyed by term index. */
    std::unordered_map<uint32_t, BitVec> leafValues;
};

/**
 * The solver knobs, declared once. The CLI and serve fill one in;
 * SynthesisOptions, CegisOptions and SolveLimits each carry it
 * unchanged down to every checkSat call and IncrementalContext, which
 * apply it to each CDCL solver they create.
 */
struct SolverPolicy
{
    /**
     * Record a DRAT proof during CDCL search and replay it through the
     * independent forward checker (sat::checkDrat) whenever the
     * verdict is Unsat. A proof that fails to check is a solver bug
     * and panics rather than returning an unsound Unsat. Adds proof
     * logging overhead to every solve, so this is opt-in (`owl synth
     * --check-proofs`).
     */
    bool checkProofs = false;
    /**
     * Enable the CDCL phase profiler (sat::Solver::setPhaseProfiling):
     * stride-sampled attribution of solve time to propagate/analyze/
     * decide/reduceDb/restart, exported as sat.phase.* counters.
     * Opt-in (`owl synth --profile-sat`); near-zero overhead when off.
     */
    bool profileSat = false;
    /**
     * SatELite-style pre/inprocessing (sat::SimpOptions). Every
     * IncrementalContext freezes at check() entry: a sealed one
     * (checkSat) only the memory read and address bits its lazy
     * lemmas are built over, a session also every blast-cache output
     * later clauses can mention (DESIGN.md §12.3). Model
     * reconstruction keeps returned models complete, and lexmin
     * canonicalization keeps synthesized holes bit-identical either
     * way. Default-on; `owl synth --no-preprocess` opts out
     * pipeline-wide.
     */
    bool preprocess = true;
    /**
     * Instantiate the full quadratic set of Ackermann congruence
     * constraints for memory base reads up front instead of the
     * default lemmas-on-demand refinement loop (DESIGN.md §14).
     * Verdicts and (lexmin-canonicalized) hole models are identical
     * either way; the escape hatch exists for A/B comparison
     * (`owl synth --eager-ackermann`).
     */
    bool eagerAckermann = false;

    bool operator==(const SolverPolicy &) const = default;

    /** Options for a CDCL solver run under this policy. */
    sat::Solver::Options satOptions() const;
};

/** Resource limits and solver policy for a single checkSat call. */
struct SolveLimits
{
    std::chrono::milliseconds timeLimit{0}; ///< 0 = unlimited
    uint64_t conflictLimit = 0;             ///< 0 = unlimited
    /** Cooperative cancellation (polled by the SAT loop); may be null. */
    const std::atomic<bool> *cancelFlag = nullptr;
    SolverPolicy solver;
};

/** Statistics from the most recent checkSat call. */
struct CheckStats
{
    size_t satVars = 0;
    /** Congruences asserted (eager pairs or lazy lemmas alike). */
    size_t ackermannConstraints = 0;
    /** Lazy congruence lemmas instantiated from model scans. */
    uint64_t ackermannLemmas = 0;
    /** Lemma-triggered re-solves (0 = first model was clean/eager). */
    uint64_t ackermannRounds = 0;
    uint64_t conflicts = 0;
    uint64_t propagations = 0;
    /** Term-DAG nodes in the table after bit-blasting. */
    size_t termNodes = 0;
    /** True if an Unsat verdict was certified by the DRAT checker. */
    bool proofChecked = false;
    /** Steps in the checked proof (adds + deletes). */
    size_t proofSteps = 0;
    /**
     * True when an Unsat verdict held only under the call's
     * assumptions (incremental activation literals): the formula was
     * not refuted, so the verdict carries no DRAT proof obligation
     * and proof-coverage accounting books it as `drat.unsat_conditional`
     * rather than `drat.proofs_checked`.
     */
    bool unsatConditional = false;
};

/**
 * Check satisfiability of the conjunction of the given 1-bit terms.
 *
 * @param tt the term table the assertions live in.
 * @param assertions 1-bit terms, all required true.
 * @param model filled in on Sat if non-null.
 * @param limits optional resource limits (Unknown on exhaustion).
 * @param stats optional output statistics.
 */
CheckResult checkSat(TermTable &tt,
                     const std::vector<TermRef> &assertions,
                     Model *model = nullptr,
                     const SolveLimits &limits = {},
                     CheckStats *stats = nullptr);

} // namespace owl::smt

#endif // OWL_SMT_SOLVER_H
