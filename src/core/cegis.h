/**
 * @file
 * CEGIS (counterexample-guided inductive synthesis) for control logic
 * (paper §3.3, Equations (1)/(2)).
 *
 * The ∃holes ∀state query of Equation (2) is solved as the classic
 * guess-and-verify loop that realizes Rosette's `synthesize` on top of
 * a plain satisfiability oracle:
 *
 *   candidate := pin (previous instruction's values), else a warm
 *                session's lexmin candidate, else all-zeros
 *   loop:
 *     verify:  holes := candidate (constants fold through the whole
 *              datapath); SAT(Pre ∧ assumes ∧ ¬Post)?
 *              UNSAT -> done. SAT -> model is a counterexample s_0.
 *     synth:   replay every counterexample with concrete state and
 *              symbolic holes; SAT((Pre ∧ assumes) -> Post for all
 *              counterexamples)? model -> next candidate.
 *
 * Per the paper, hole solutions are concrete bitvector constants per
 * instruction; the control union (control_union.h) then joins them
 * into complete control logic.
 */

#ifndef OWL_CORE_CEGIS_H
#define OWL_CORE_CEGIS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/absfunc.h"
#include "core/spec_compiler.h"
#include "ila/ila.h"
#include "oyster/ir.h"
#include "oyster/symeval.h"
#include "smt/incremental.h"
#include "smt/solver.h"

namespace owl::synth
{

class SynthSession;
class SynthSessionPool;

/** Status of a synthesis attempt. */
enum class SynthStatus : uint8_t
{
    Ok,
    Unsat,      ///< no control logic exists (sketch/spec mismatch)
    Timeout,    ///< resource budget exhausted
    IterLimit,  ///< CEGIS iteration bound hit
};

const char *synthStatusName(SynthStatus s);

/** Values for every hole, keyed by hole name. */
using HoleValues = std::map<std::string, BitVec>;

/** A concrete initial state extracted from a failed verification. */
struct Counterexample
{
    std::map<std::string, BitVec> regs;
    std::map<std::pair<std::string, int>, BitVec> inputs;
    std::map<std::string, std::map<uint64_t, BitVec>> mems;
};

/** Knobs for one synthesis run. */
struct CegisOptions
{
    int maxIterations = 64;
    /** Zero = no deadline. */
    std::chrono::steady_clock::time_point deadline{};
    /** Per-SAT-call conflict cap; 0 = unlimited. */
    uint64_t conflictLimit = 0;
    /**
     * Cooperative cancellation, polled between CEGIS steps and inside
     * the SAT loop. The parallel strategy and parallel verification
     * use it to abort the tasks of later instructions once an earlier
     * one has failed. May be null.
     */
    const std::atomic<bool> *cancelFlag = nullptr;
    /**
     * Keep the synth-side query in one long-lived incremental SAT
     * session per instruction (smt::IncrementalContext): each
     * iteration encodes only the new counterexample's constraint
     * block behind an activation literal, and learned clauses,
     * activities, and the bit-blast cache carry over between
     * iterations. Off = re-bit-blast and re-solve from scratch every
     * iteration (the pre-incremental behavior, kept for A/B
     * comparison and the bit-identity tests). Verification queries
     * always use a fresh solver — each candidate folds the holes to
     * different constants, so there is no encoding to share.
     */
    bool incremental = true;
    /** Solver knobs for every SAT query this run issues. */
    smt::SolverPolicy solver;
    /**
     * Optional warm-session pool (serve's amortization path). When
     * set and incremental mode is on, synthesize() checks out an
     * existing SynthSession for the instruction instead of building a
     * fresh one, and returns it at the end whatever the outcome. An
     * unpinned run on a session that has groups starts from that
     * session's lexmin candidate instead of all-zeros. Lexmin
     * canonicalization keeps warm-session results bit-identical to
     * cold ones (DESIGN.md §11). May be null (the default).
     */
    SynthSessionPool *sessionPool = nullptr;

    bool hasDeadline() const
    {
        return deadline != std::chrono::steady_clock::time_point{};
    }
    bool cancelled() const
    {
        return cancelFlag &&
               cancelFlag->load(std::memory_order_relaxed);
    }
    bool expired() const
    {
        if (cancelled())
            return true;
        return hasDeadline() &&
               std::chrono::steady_clock::now() > deadline;
    }
    std::chrono::milliseconds remaining() const;
    /** SolveLimits carrying this run's budget and solver policy. */
    smt::SolveLimits solveLimits() const;
};

/** Result of synthesizing one instruction's hole constants. */
struct CegisResult
{
    SynthStatus status = SynthStatus::Ok;
    HoleValues holes;
    int iterations = 0;
};

/**
 * Extract a counterexample from a SAT model: initial registers and
 * per-cycle inputs by the symbolic evaluator's naming scheme, memory
 * words from (possibly symbolic-address) base reads.
 */
void extractCounterexample(const smt::TermTable &tt,
                           const smt::Model &model,
                           const std::map<int, std::string> &mem_names,
                           Counterexample &cex);

/** Memory-id (declaration index) to name map for a sketch. */
std::map<int, std::string> memoryNames(const oyster::Design &sketch);

/**
 * Apply the abstraction function's initial-state register aliases to
 * a symbolic run: aliased registers share one fresh initial variable.
 */
void applyInitAliases(const oyster::Design &sketch,
                      const AbsFunc &alpha, smt::TermTable &tt,
                      oyster::SymbolicEvaluator &ev);

/** Replicate aliased initial values inside a counterexample replay. */
void applyCexAliases(const AbsFunc &alpha, Counterexample &cex);

/**
 * Symbolically run a sketch from a counterexample's concrete state:
 * holes bound to hole_terms, and every register, input and memory
 * pinned to the counterexample (aliases applied; absent values are
 * zero).
 */
oyster::SymRun
runWithCex(const oyster::Design &sketch, const AbsFunc &alpha,
           smt::TermTable &tt,
           const std::map<std::string, smt::TermRef> &hole_terms,
           Counterexample cex);

/**
 * The synth side of one instruction's CEGIS run as a long-lived
 * incremental session: one TermTable, one persistent bit-blast cache,
 * one solver for every iteration. Each counterexample becomes an
 * activation-literal group, so iteration k encodes and solves only
 * the delta while learned clauses from iterations 1..k-1 keep pruning
 * the search.
 *
 * Sessions may outlive a single synthesize() call (serve's warm pool):
 * the accumulated groups are valid constraints of the same ∃∀
 * subproblem, re-fed counterexamples dedup inside IncrementalContext,
 * and lexmin canonicalization makes the final hole assignment a
 * property of the formula — so a warm rerun converges to bit-identical
 * holes. The referenced sketch/spec/alpha must outlive the session
 * (the pool keeps its own CaseStudy per design for exactly this).
 */
class SynthSession
{
  public:
    SynthSession(const oyster::Design &sketch, const ila::Ila &spec,
                 const AbsFunc &alpha, const std::string &instr_name,
                 const CegisOptions &opts);
    SynthSession(const SynthSession &) = delete;
    SynthSession &operator=(const SynthSession &) = delete;

    const std::string &instrName() const { return instr_name; }

    /**
     * Encode one counterexample replay as an activation-literal group
     * (exact re-encodes of a known counterexample dedup to the
     * existing group; see IncrementalContext::addGroup).
     */
    void addCex(const Counterexample &cex);

    /**
     * Solve everything added so far and write the lexicographically
     * minimal hole assignment into candidate. The lexmin is a property
     * of the group set, so while no group has been added since the
     * last canonicalization that succeeded, its candidate is returned
     * with no solver call (a warm checkout's first solve lands here).
     */
    SynthStatus solve(HoleValues &candidate, const CegisOptions &opts);

    /** Warm-checkout bookkeeping; see IncrementalContext::beginReuse. */
    int beginReuse() { return ctx.beginReuse(); }

    /** Counterexample groups accumulated over the session's lifetime. */
    int groups() const { return ctx.numGroups(); }

    /** The solver policy the session was built with. */
    const smt::SolverPolicy &policy() const { return ctx.policy(); }

    smt::IncrementalStats stats() const { return ctx.stats(); }

  private:
    const oyster::Design &sketch;
    const ila::Ila &spec;
    const AbsFunc &alpha;
    std::string instr_name;
    const ila::Instr &instr; ///< resolved from spec by instr_name
    smt::TermTable tt;
    std::map<std::string, smt::TermRef> holeVars;
    smt::IncrementalContext ctx;
    /** Group count when memo was canonicalized; -1 = no memo. */
    int memoGroups = -1;
    HoleValues memo;
};

/**
 * Source of warm SynthSessions, keyed by instruction name. The
 * caller (InstrSynthesizer::synthesize via CegisOptions::sessionPool)
 * checks a session out for the duration of one CEGIS run and checks
 * it back in at the end. A checkout may be warm (a previous run's
 * session) or pool-created cold; either way the returned session
 * references design state the *pool* owns and outlives, so checkin()
 * can always park it. checkout() may return null (pool declines, e.g.
 * incompatible options or unknown instruction) — the caller then
 * builds a private session on its own objects and does NOT check that
 * one in. Implementations own design lifetime and thread safety; see
 * serve::WarmSessionPool.
 */
class SynthSessionPool
{
  public:
    virtual ~SynthSessionPool() = default;
    virtual std::unique_ptr<SynthSession>
    checkout(const std::string &instr_name, const CegisOptions &opts) = 0;
    virtual void checkin(std::unique_ptr<SynthSession> session) = 0;
};

/**
 * Per-instruction control synthesis over a datapath sketch.
 */
class InstrSynthesizer
{
  public:
    InstrSynthesizer(const oyster::Design &sketch, const ila::Ila &spec,
                     const AbsFunc &alpha);

    /**
     * Solve the Equation (2) query for one instruction.
     *
     * @param instr the ILA instruction.
     * @param pin optional hole values to try first (pin-and-relax; see
     *        DESIGN.md §3).
     */
    CegisResult synthesize(const ila::Instr &instr,
                           const HoleValues *pin,
                           const CegisOptions &opts);

    /**
     * Check a completed candidate against one instruction: returns
     * true when Pre ∧ assumes ∧ ¬Post is unsatisfiable.
     *
     * @param stats optional per-query SMT statistics (the cegis span
     *        and the cegis.instr_ackermann histogram feed off these).
     */
    SynthStatus verifyCandidate(const ila::Instr &instr,
                                const HoleValues &candidate,
                                Counterexample *cex,
                                const CegisOptions &opts,
                                smt::CheckStats *stats = nullptr);

  private:
    const oyster::Design &sketch;
    const ila::Ila &spec;
    const AbsFunc &alpha;
    std::map<int, std::string> memNames; // decl index -> memory name

    SynthStatus synthStep(const ila::Instr &instr,
                          const std::vector<Counterexample> &cexes,
                          HoleValues &candidate,
                          const CegisOptions &opts,
                          smt::CheckStats *stats = nullptr);

    HoleValues zeroCandidate() const;
};

} // namespace owl::synth

#endif // OWL_CORE_CEGIS_H
