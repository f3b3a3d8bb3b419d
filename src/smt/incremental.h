/**
 * @file
 * Incremental SMT solving for CEGIS: one persistent bit-blast cache
 * and one long-lived CDCL instance shared by a whole family of
 * closely related queries.
 *
 * A fresh checkSat() call rebuilds the CNF encoding of the entire
 * query and throws away everything the SAT search learned. Across
 * CEGIS iterations that is almost pure waste: iteration k's synthesis
 * query is iteration k-1's query plus one new counterexample block
 * (paper §3.3, Equation (2)). IncrementalContext keeps the encoding:
 *
 *  - Terms are blasted once into a persistent BitBlaster, so each
 *    iteration only encodes the delta (cache keying is the hash-consed
 *    TermRef index, which is stable for the lifetime of the TermTable).
 *  - Each addGroup() guards its assertions behind a fresh activation
 *    literal a (clauses ~a v lit), and check() solves under the
 *    assumption set {a_0, ..., a_k}; retracting a group would be
 *    dropping its literal, though CEGIS only ever accumulates.
 *  - Learned clauses, VSIDS activities, and saved phases persist
 *    across check() calls (sat::Solver is incremental), so conflicts
 *    paid for in early iterations prune later ones.
 *  - DRAT logging spans the whole session: one proof accumulates
 *    lemma additions and reduceDb deletions across every solve.
 *    Conditional verdicts (Unsat only under the activation-literal
 *    assumptions) carry no proof obligation and are excluded from
 *    proof claims (booked as drat.unsat_conditional); a genuine
 *    formula-level refutation emits the empty clause and the whole
 *    session proof replays through sat::checkDrat.
 */

#ifndef OWL_SMT_INCREMENTAL_H
#define OWL_SMT_INCREMENTAL_H

#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sat/drat.h"
#include "sat/solver.h"
#include "smt/ackermann.h"
#include "smt/bitblast.h"
#include "smt/solver.h"
#include "smt/term.h"

namespace owl::smt
{

/** Cumulative counters for one incremental session. */
struct IncrementalStats
{
    /** check() calls that reached the SAT solver. */
    uint64_t solveCalls = 0;
    /**
     * Learned clauses alive in the solver's database at entry to each
     * check() after the first — i.e. search effort carried
     * over from earlier iterations instead of being re-derived.
     */
    uint64_t clausesReused = 0;
    /**
     * Term-DAG nodes referenced by an addGroup()/assertPermanent()
     * batch that were already in the bit-blast cache: encoding work a
     * fresh per-iteration checkSat() would have redone.
     */
    uint64_t cacheHits = 0;
    /** Term-DAG nodes newly encoded to CNF by this session. */
    uint64_t nodesEncoded = 0;
    uint64_t groups = 0;
    /**
     * addGroup() batches that were assertion-for-assertion identical
     * to an existing group and were answered with that group's id
     * instead of a new activation literal (warm-session replays —
     * serve's session pool re-feeds counterexamples the session
     * already carries).
     */
    uint64_t groupsDeduped = 0;
    /** beginReuse() calls: times this session was checked out warm. */
    uint64_t reuses = 0;
    /**
     * Ackermann congruence constraints asserted so far — eager pairs
     * and lazily learned lemmas alike ("congruences asserted").
     */
    uint64_t ackermannConstraints = 0;
    /** Lazy congruence lemmas learned from model scans (≤ the eager
     * pair bound; permanent session facts once asserted). */
    uint64_t ackermannLemmas = 0;
    /** Lemma-triggered re-solves across all check() calls. */
    uint64_t ackermannRounds = 0;
    /** Sat-model congruence scans across all check() calls. */
    uint64_t ackermannScans = 0;
};

/**
 * A persistent solving session over one TermTable.
 *
 * Usage mirrors checkSat(), split across time: assertPermanent() /
 * addGroup() to accumulate the query, check() to solve everything
 * asserted so far (permanent assertions unconditionally, every group
 * under its activation literal). Ackermann congruence for base reads
 * is maintained incrementally and, by default, lazily: check() scans
 * each Sat model for read-consistency violations and asserts only the
 * violated congruence instances — as permanent session facts, since
 * congruence is a property of the read UF, not of any one query — and
 * re-solves until the model is clean or Unsat (DESIGN.md §14).
 * SolverPolicy::eagerAckermann instead pairs each new batch against
 * every read seen before it, so the session carries exactly the
 * constraints a from-scratch eager encode of the union would.
 *
 * The whole SolverPolicy is fixed at construction: the proof sink must
 * exist before the first clause lands, pre/inprocessing relies on the
 * freeze discipline from the first clause on (every bit-blast cache
 * output and every activation literal is frozen before it can be
 * eliminated), and lazily learned lemmas are permanent session facts,
 * so mixing Ackermann modes mid-session would double-book pairs.
 *
 * The TermTable must outlive the context and must not be used with a
 * second context concurrently (blast-cache keying assumes node
 * indices are append-only).
 */
class IncrementalContext
{
  public:
    explicit IncrementalContext(TermTable &tt,
                                const SolverPolicy &policy = {});
    ~IncrementalContext();
    IncrementalContext(const IncrementalContext &) = delete;
    IncrementalContext &operator=(const IncrementalContext &) = delete;

    /** Assert a 1-bit term unconditionally, for the whole session. */
    void assertPermanent(TermRef t);

    /**
     * Add a group of 1-bit assertions guarded by a fresh activation
     * literal; every subsequent check() assumes the group. Returns the
     * group id (dense, starting at 0) used by failedGroups().
     *
     * Idempotent per assertion batch: a batch whose TermRef sequence
     * exactly matches an earlier group's returns that group's id
     * without growing the assumption set (hash-consing makes replayed
     * counterexample constraints bit-identical, so warm-session reuse
     * hits this path instead of accreting duplicate groups). Booked in
     * stats().groupsDeduped.
     */
    int addGroup(const std::vector<TermRef> &assertions);

    /**
     * Mark the start of a warm reuse of this session (serve's session
     * pool calls it at checkout). Pure bookkeeping: bumps the
     * generation and stats().reuses; the accumulated groups, learned
     * clauses, and blast cache all stay live — that is the point.
     * Returns the new generation (1-based; 0 = never reused).
     */
    int beginReuse();

    /** How many times beginReuse() has been called. */
    int generation() const { return gen; }

    /**
     * Solve everything asserted so far. Only the per-call fields of
     * limits apply (time, conflict and cancel); limits.solver is
     * ignored in favour of the policy the session was built with.
     *
     * @param extra_assumptions additional literals assumed true for
     *        this call only, on top of the group activation literals.
     *        Used for model shaping (e.g. CEGIS's lexicographic hole
     *        canonicalization probes individual hole bits this way).
     */
    CheckResult check(Model *model = nullptr,
                      const SolveLimits &limits = {},
                      CheckStats *stats = nullptr,
                      const std::vector<sat::Lit> &extra_assumptions = {});

    /**
     * The CNF literals (lsb first) encoding a term, blasting it if it
     * was not already part of an assertion. The literals are valid for
     * the lifetime of the context and can be passed to check() as
     * assumptions.
     */
    std::vector<sat::Lit> literalsOf(TermRef t);

    /**
     * A literal's value in the model of the most recent check(), or
     * nullopt when that check was not Sat or the literal's variable is
     * newer than the model (literalsOf() can blast fresh variables
     * after a solve). Read it right after the Sat check it belongs
     * to: a lazy-Ackermann round inside a later Unsat check can leave
     * an intermediate, congruence-violating model in the solver, which
     * this accessor then refuses to expose.
     */
    std::optional<bool> modelValue(sat::Lit l) const;

    /**
     * True when the most recent check() returned Unsat only under the
     * activation-literal assumptions (the session formula itself is
     * not refuted; no proof obligation).
     */
    bool lastUnsatWasConditional() const { return lastConditional; }

    /**
     * After a conditional Unsat: ids of the groups whose activation
     * literals appear in the final-conflict assumption core. Not
     * guaranteed minimal, but groups with no role in the refutation
     * are excluded.
     */
    std::vector<int> failedGroups() const;

    int numGroups() const { return static_cast<int>(activations.size()); }
    const IncrementalStats &stats() const { return istats; }
    /** The session solver's cumulative SAT statistics. */
    const sat::Stats &satStats() const { return solver->stats(); }
    /** The session blaster's cumulative gate and strash-hit counts. */
    const BlastStats &blastStats() const { return blaster->stats(); }
    /** The policy fixed at construction. */
    const SolverPolicy &policy() const { return sessionPolicy; }

  private:
    TermTable &tt;
    const SolverPolicy sessionPolicy;
    /** A permanent assertion folded to constant false. */
    bool rootUnsat = false;

    /** Input clauses and session-long proof (checkProofs only). */
    sat::Cnf cnf;
    sat::DratProof proof;
    /**
     * Heap-allocated on purpose: embedding the solver in the context
     * raised serve-mix peak RSS from 373 to 406 MB (glibc malloc,
     * 4-CPU x86-64) with identical work.
     */
    std::unique_ptr<sat::Solver> solver;
    /** Built after the proof sinks are attached (its ctor adds a clause). */
    std::unique_ptr<BitBlaster> blaster;
    /** Blast-cache output-log entries already frozen. */
    size_t frozenMark = 0;

    std::vector<sat::Lit> activations;      ///< group id -> activation lit
    std::unordered_map<int, int> actVarToGroup;
    /** Exact assertion batch -> existing group id (addGroup dedup). */
    std::map<std::vector<uint32_t>, int> groupIndex;
    int gen = 0; ///< beginReuse() count

    /** Leaves tracked for model extraction (vars + base reads). */
    std::vector<TermRef> modelLeaves;
    std::unordered_set<uint32_t> leafSeen;
    /**
     * Shared Ackermann bookkeeping (every distinct BaseRead, the
     * eager pairing, and the lazy scan/instantiate state). Lemmas it
     * hands out are asserted permanently: congruence is a property of
     * the read UF, not of any query, so they survive activation
     * groups, warm reuse, and the freeze discipline like any other
     * permanent clause.
     */
    AckermannManager ack;

    bool lastConditional = false;
    /** Variables the last check()'s model covers; 0 unless it was Sat. */
    int modelVars = 0;
    IncrementalStats istats;

    /** Distinct term-DAG nodes reachable from the roots. */
    uint64_t reachableTerms(const std::vector<TermRef> &roots) const;
    /**
     * Register a batch's leaves: extend the model-extraction set and
     * hand the base reads to the Ackermann manager — eager mode
     * asserts the full pairing against every read known before
     * (permanent; congruence is valid formula-wide even when the
     * reads only occur inside groups), lazy mode pre-blasts and
     * freezes the read/address literals the model scan will decode
     * and future lemma clauses may mention.
     */
    void registerLeaves(const std::vector<TermRef> &roots);
    /**
     * Freeze newly blasted cache-output literals. Every path that
     * grows the encoding funnels through here before the next solve
     * can simplify.
     */
    void freezeOutputs();
};

} // namespace owl::smt

#endif // OWL_SMT_INCREMENTAL_H
