/**
 * @file
 * Ackermann-congruence bookkeeping for the uninterpreted memory base
 * reads of one IncrementalContext: a sealed one-shot query
 * (smt::checkSat) or a whole session.
 *
 * The paper models memory base state as an uninterpreted read
 * function; removing the UF requires the congruence axioms
 *
 *     addr_i = addr_j  ->  read_i = read_j
 *
 * for every pair of BaseReads of the same memory. This class is the
 * one place that pairing logic lives, eager (the full quadratic pair
 * set up front) and lazy (lemmas on demand, DESIGN.md §14):
 *
 *  - registerReads() records every distinct BaseRead, grouped by
 *    memory. In eager mode it returns the congruence terms pairing
 *    each new read against every read known before it — exactly the
 *    pair set a from-scratch encode of the union would produce. In
 *    lazy mode nothing is returned; the reads (and their address
 *    children, which the caller must keep decodable in SAT models)
 *    are simply remembered. The context freezes their bits at
 *    check() entry whenever pairBound() > 0, since lemmas are built
 *    over them after the first solve (DESIGN.md §12.3).
 *
 *  - scanModel() checks a satisfying model for read-consistency
 *    violations: two reads of the same memory whose address values
 *    agree but whose read values differ. Each violated pair is
 *    returned exactly once (the instance is marked instantiated).
 *    solveRefining() asserts those pairs into the live solver at
 *    literal level (BitBlaster::assertCongruence) and re-solves. A
 *    model that scans clean is consistent with SOME memory function,
 *    so the query is genuinely Sat under the full eager encoding —
 *    which is why lazy and eager verdicts (and, via lexmin
 *    canonicalization, synthesized holes) are identical.
 *
 * Termination: every scan on a Sat model either returns no lemmas
 * (converged) or instantiates at least one new pair from the finite
 * pair set, so a refinement loop re-solves at most pairBound() times.
 *
 * Counters: the manager owns `smt.ackermann.lemmas` (lazy congruence
 * instances handed out), `smt.ackermann.pair_bound` (same-memory
 * pairs registered — the eager instantiation bound) and
 * `smt.ackermann.{rounds,scans}`; `smt.ackermann_constraints`
 * (congruences actually asserted, eager or lazy) is booked by
 * solveRefining() for lemmas and by the context for the rest.
 */

#ifndef OWL_SMT_ACKERMANN_H
#define OWL_SMT_ACKERMANN_H

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sat/solver.h"
#include "smt/term.h"

namespace owl::smt
{

class BitBlaster; // smt/bitblast.h

/** Work done by AckermannManager::solveRefining(). */
struct RefineStats
{
    uint64_t scans = 0;  ///< Sat models scanned
    uint64_t rounds = 0; ///< lemma-triggered re-solves
    uint64_t lemmas = 0; ///< congruences asserted from scans
};

class AckermannManager
{
  public:
    /**
     * `eager` fixes the mode for the manager's life: eager pairs every
     * read at registration, lazy refines from model scans.
     */
    AckermannManager(TermTable &tt_in, bool eager_in)
        : tt(tt_in), eager(eager_in)
    {
    }

    /** Outcome of registering a batch of base reads. */
    struct Registration
    {
        /** Congruence terms to assert now (eager mode only). */
        std::vector<TermRef> congruences;
        /** Distinct reads not seen before, in sorted TermRef order. */
        std::vector<TermRef> newReads;
        /**
         * Address children of the new reads. Lazy callers must blast
         * these and the reads, and freeze their literals, before the
         * first solve: scanModel() decodes them and lemmas are built
         * over them.
         */
        std::vector<TermRef> addresses;
    };

    /**
     * Record a batch of BaseRead terms (duplicates, both within the
     * batch and against earlier batches, are ignored). Eager mode
     * returns the non-trivial congruences pairing each new read
     * against every same-memory read known before it.
     */
    Registration registerReads(const std::vector<TermRef> &reads_in);

    /**
     * Scan a satisfying model for violated congruences. `value` must
     * return the model value of any registered read or address term.
     * Returns the violated read pairs not yet instantiated (marking
     * them instantiated), in lexicographic registration order; empty
     * means the model is congruence-clean.
     */
    std::vector<std::pair<TermRef, TermRef>>
    scanModel(const std::function<BitVec(TermRef)> &value);

    /**
     * The solve of checkSat and IncrementalContext::check, with the
     * lazy refinement loop: solve under `assumptions`; in lazy mode,
     * on Sat, scan the model, assert each violated pair into the same
     * solver through BitBlaster::assertCongruence, and solve again,
     * until the model is congruence-clean or the verdict is not Sat.
     * Every registered read and address must be blasted, with its
     * literals frozen against elimination, before the first solve.
     * Blasts no term (asserted), so nothing it adds can mention an
     * eliminated variable. Books `smt.ackermann.{scans,rounds}` and
     * `smt.ackermann_constraints`; `out` gets this call's work.
     */
    sat::Result solveRefining(sat::Solver &solver, BitBlaster &blaster,
                              const std::vector<sat::Lit> &assumptions,
                              RefineStats &out);

    /** Distinct base reads registered so far, in registration order. */
    const std::vector<TermRef> &registeredReads() const { return reads; }
    /**
     * Same-memory read pairs registered so far — what eager expansion
     * would have instantiated (an upper bound: trivially-true
     * congruences fold away). Lazy lemmas can never exceed this.
     */
    uint64_t pairBound() const { return pair_bound; }

  private:
    TermTable &tt;
    const bool eager;
    /** Registration order; index is the pair-key id. */
    std::vector<TermRef> reads;
    std::unordered_set<uint32_t> seen;
    /** Memory id -> indices into `reads` (std::map: deterministic
     * iteration order). */
    std::map<int, std::vector<size_t>> byMemory;
    /** Instantiated pair keys (lo index << 32 | hi index). */
    std::unordered_set<uint64_t> instantiated;
    uint64_t pair_bound = 0;

    /** addr_a = addr_b -> a = b (may fold in the term table). */
    TermRef congruence(TermRef a, TermRef b);
};

} // namespace owl::smt

#endif // OWL_SMT_ACKERMANN_H
