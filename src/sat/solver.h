/**
 * @file
 * A CDCL (conflict-driven clause learning) SAT solver.
 *
 * This is the solving substrate underneath the bitvector SMT layer
 * (the role played by Boolector/CVC4 in the paper's artifact). The
 * implementation follows the standard MiniSat architecture:
 * two-watched-literal propagation, first-UIP conflict analysis with
 * clause minimization, exponential VSIDS activities with phase saving,
 * Luby restarts, and LBD-based learned-clause database reduction.
 *
 * The search is deterministic: the same Options on the same formula
 * reproduce the same model and the same statistics, which is what
 * keeps counterexamples, and with them the CEGIS trajectory,
 * reproducible run after run.
 */

#ifndef OWL_SAT_SOLVER_H
#define OWL_SAT_SOLVER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/logging.h"
#include "obs/obs.h"

namespace owl::lint
{
class Report;
}

namespace owl::sat
{

/**
 * A literal: variable index v (from 0) with sign, encoded as 2v+sign.
 * sign==1 means the negated literal.
 */
class Lit
{
  public:
    Lit() : code(-1) {}
    Lit(int var, bool negated) : code(2 * var + (negated ? 1 : 0)) {}

    int var() const { return code >> 1; }
    bool negated() const { return code & 1; }
    Lit operator~() const { Lit l; l.code = code ^ 1; return l; }
    bool operator==(const Lit &o) const { return code == o.code; }
    bool operator!=(const Lit &o) const { return code != o.code; }
    bool valid() const { return code >= 0; }
    /** Raw encoding, used for indexing watch lists. */
    int index() const { return code; }

  private:
    int code;
};

/** Result of a solve call. */
enum class Result : uint8_t { Sat, Unsat, Unknown };

/**
 * Solver statistics for benchmarking and tests. Counted in the hot
 * loop here (plain uint64 increments); solve() flushes the per-call
 * deltas into the obs::Registry (sat.* counters) on exit, so SAT
 * effort shows up in every exported stats file.
 */
struct Stats
{
    uint64_t conflicts = 0;
    uint64_t decisions = 0;
    uint64_t propagations = 0;
    uint64_t restarts = 0;
    uint64_t learnedClauses = 0;
    /** Total literals across learned clauses (proof-size proxy). */
    uint64_t learnedLiterals = 0;
    /** Learned clauses of size 1 (fixed at level 0, never in the DB). */
    uint64_t learnedUnits = 0;
    uint64_t learnedDeleted = 0;
    /**
     * Clause-arena compactions: one per simplification round end,
     * plus those reduceDb() runs once garbage passes half the arena.
     */
    uint64_t arenaCompactions = 0;
};

/**
 * Knobs for the SatELite-style pre/inprocessing pass (sat/simp.cc):
 * backward subsumption, self-subsuming resolution, bounded variable
 * elimination with a clause-growth cutoff, pure-literal elimination
 * (the zero-resolvent BVE case), and failed-literal probing.
 *
 * Disabled by default at the Solver level: raw incremental users may
 * add clauses over arbitrary existing variables between solve() calls,
 * which is only sound under the freeze discipline the smt layer
 * maintains (setFrozen on every literal future clauses can mention).
 * The owl pipeline (smt::checkSat, smt::IncrementalContext, synth,
 * serve, the CLI) turns it on by default; `--no-preprocess` opts out.
 */
struct SimpOptions
{
    bool enabled = false;
    /**
     * Extra resolvents tolerated per eliminated variable. Independent
     * of the count bound, an elimination never grows the total
     * literal count of the replaced original clauses: count-neutral
     * but width-growing rewrites (merging Tseitin XOR definitions)
     * trade structure the search needs for clauses it cannot
     * propagate through.
     */
    int growthLimit = 0;
    /**
     * Variables occurring in more than this many clauses are skipped
     * by variable elimination (the resolvent cross-product gets
     * quadratic; high-occurrence vars are rarely worth it).
     */
    size_t occurrenceLimit = 400;
    /** A resolvent longer than this aborts the elimination. */
    size_t resolventSizeLimit = 30;
    /**
     * Conflicts between inprocessing rounds at restart boundaries;
     * 0 disables inprocessing (preprocessing at solve() entry still
     * runs whenever the clause database changed).
     */
    uint64_t inprocessConflicts = 20000;
    /** Failed-literal probes per simplification round; 0 disables. */
    size_t probeLimit = 32;
    /**
     * Clauses added since the last round before solve() entry runs
     * another one (the effective trigger is max(minNewClauses,
     * db/8)). A round costs O(db) whatever the delta, so re-running
     * it per tiny incremental check is pure overhead.
     */
    size_t minNewClauses = 512;
};

/** Cumulative statistics of the pre/inprocessing pass. */
struct SimpStats
{
    /** Completed simplification rounds (pre- and inprocessing). */
    uint64_t rounds = 0;
    uint64_t varsEliminated = 0;
    /** Subset of varsEliminated with zero resolvents (pure). */
    uint64_t pureLiterals = 0;
    uint64_t clausesSubsumed = 0;
    /** Clauses shortened by self-subsuming resolution / root units. */
    uint64_t clausesStrengthened = 0;
    /** Probed literals whose propagation closed a conflict. */
    uint64_t failedLiterals = 0;
    uint64_t resolventsAdded = 0;
    /** All clauses removed by the pass (subsumed + satisfied + BVE). */
    uint64_t clausesDeleted = 0;
};

/**
 * A plain CNF snapshot: a variable count plus raw clauses, exactly as
 * they were handed to Solver::addClause. Captured via
 * setCaptureCnf() during bit-blasting so the DRAT checker can replay
 * a proof against exactly the clauses the solver saw.
 */
struct Cnf
{
    int numVars = 0;
    std::vector<std::vector<Lit>> clauses;
};

struct DratProof; // sat/drat.h

/**
 * CDCL SAT solver over CNF.
 *
 * Usage: newVar() to allocate variables, addClause() to add clauses,
 * then solve(). After Result::Sat, modelValue() reads the model.
 */
class Solver
{
  public:
    /** Search pacing and simplification. */
    struct Options
    {
        /**
         * Luby restart unit, in conflicts. Small values force frequent
         * restarts, and with them inprocessing rounds; used by the
         * simplification golden tests.
         */
        uint64_t restartBase = 100;
        /**
         * Live learned clauses tolerated before the first reduceDb()
         * (the limit then grows 1.5x per reduction). Small values
         * force frequent reductions; used by the clause-DB accounting
         * tests.
         */
        uint64_t learnedLimitBase = 8192;
        /** Pre/inprocessing pass configuration (sat/simp.cc). */
        SimpOptions simp;
    };

    Solver() : Solver(Options()) {}
    explicit Solver(const Options &options);

    const Options &options() const { return opts; }

    /** Allocate a fresh variable; returns its index. */
    int newVar();
    int numVars() const { return nVars; }

    /**
     * Add a clause (disjunction of literals). Returns false if the
     * clause makes the formula trivially unsatisfiable. The literals
     * are copied; the span may point anywhere but into the solver.
     */
    bool addClause(std::span<const Lit> lits);
    bool addClause(Lit a)
    {
        const Lit lits[] = {a};
        return addClause(std::span<const Lit>(lits));
    }
    bool addClause(Lit a, Lit b)
    {
        const Lit lits[] = {a, b};
        return addClause(std::span<const Lit>(lits));
    }
    bool addClause(Lit a, Lit b, Lit c)
    {
        const Lit lits[] = {a, b, c};
        return addClause(std::span<const Lit>(lits));
    }

    /**
     * Solve the current formula under optional assumptions.
     *
     * The solver is incremental: solve() may be called repeatedly,
     * with addClause()/newVar() interleaved between calls. Learned
     * clauses, variable activities, and saved phases persist across
     * calls, so closely related queries (CEGIS iterations, activation-
     * literal groups) reuse the previous calls' search effort. After
     * Result::Sat the model is snapshotted and the trail is rewound
     * to level 0, so the solver is immediately ready for more clauses.
     *
     * @param assumptions literals assumed true for this call only.
     * @return Sat, Unsat, or Unknown if a resource limit was hit.
     */
    Result solve(const std::vector<Lit> &assumptions = {});

    /** Model value of a variable after Result::Sat. */
    bool modelValue(int var) const;

    /**
     * Freeze a variable: the pre/inprocessing pass must never
     * eliminate it. Mandatory for every variable that future
     * addClause() calls or solve() assumptions can mention — the
     * incremental SMT layer freezes all bit-blast cache outputs and
     * activation literals, and solve() auto-freezes its assumption
     * variables. Freezing is permanent (there is no un-elimination:
     * the DRAT log is RUP-only, so a reintroduced variable's defining
     * clauses could not be justified to the checker). So freezing an
     * eliminated variable is a caller bug, caught here like a clause
     * or an assumption over one.
     */
    void setFrozen(int var, bool frozen = true)
    {
        owl_assert(var >= 0 && var < nVars, "freeze of unknown var");
        owl_assert(!frozen || !elimV[var], "freeze of eliminated variable ",
                   var);
        frozenV[var] = frozen ? 1 : 0;
    }
    bool isFrozen(int var) const { return frozenV[var] != 0; }

    /** True once the simplifier eliminated the variable (BVE/pure). */
    bool isEliminated(int var) const { return elimV[var] != 0; }

    /**
     * Run one simplification round now (requires decision level 0).
     * solve() calls this automatically when Options::simp.enabled;
     * exposed for tests and for the CNF analysis passes.
     *
     * @return false when simplification refuted the formula (the
     *         verdict latches, exactly like a root-level conflict).
     */
    bool simplify();

    const SimpStats &simpStats() const { return simpStatistics; }

    /**
     * Obs bookkeeping: number of variables created since the last
     * call (high-water mark). The per-solve stats flush turns this
     * into the sat.preprocess.vars_total counter so the
     * vars_eliminated <= vars_total cross-check holds fleet-wide.
     */
    uint64_t takeUncountedVars()
    {
        uint64_t fresh = static_cast<uint64_t>(nVars) - varsCounted;
        varsCounted = static_cast<uint64_t>(nVars);
        return fresh;
    }

    /**
     * True when the most recent solve() returned Unsat only *under
     * its assumptions* — the formula itself was not refuted, no DRAT
     * empty clause was emitted, and the verdict carries no proof
     * obligation. False for a genuine formula-level Unsat (which
     * latches: every later solve() returns Unsat immediately).
     */
    bool lastUnsatWasConditional() const { return lastUnsatConditional; }

    /**
     * After a conditional Unsat: the subset of the call's assumption
     * literals involved in the final conflict (MiniSat's
     * analyzeFinal). Not guaranteed minimal, but assumptions with no
     * role in the refutation are excluded.
     */
    const std::vector<Lit> &failedAssumptions() const
    {
        return failedAssumptionsOut;
    }

    /**
     * Exact count of learned clauses currently live in the clause
     * database (recounted, O(#clauses)). Learned units are fixed at
     * level 0 and never enter the database, so
     * liveLearnedClauses() == stats().learnedClauses
     *                         - stats().learnedUnits
     *                         - stats().learnedDeleted
     * holds at every quiescent point; the internal reduction-timing
     * counter is asserted against this recount in debug builds.
     */
    uint64_t liveLearnedClauses() const;

    /**
     * The same count, maintained in O(1): incremented when a learned
     * clause enters the database, decremented by every deletion
     * (reduceDb, and the simplifier's subsumption, strengthening and
     * elimination). Equal to liveLearnedClauses() at every quiescent
     * point.
     */
    uint64_t liveLearnedCount() const { return liveLearned; }

    /** Limit wall-clock time for subsequent solve() calls; 0=none. */
    void setTimeLimit(std::chrono::milliseconds limit) { timeLimit = limit; }
    /** Limit conflicts for subsequent solve() calls; 0 = none. */
    void setConflictLimit(uint64_t limit) { conflictLimit = limit; }

    /**
     * Cooperative cancellation: solve() polls the flag (every few
     * conflicts/decisions) and returns Unknown once it reads true.
     * The pointee must outlive the solver; null disables polling.
     */
    void setCancelFlag(const std::atomic<bool> *flag)
    {
        cancelFlag = flag;
    }

    /**
     * Mirror every newVar()/addClause() into the sink (raw clauses,
     * pre-simplification) so a DRAT proof can be replayed against it
     * (sat::checkDrat). Set before adding the formula; null stops
     * capturing. The sink must outlive the capture window.
     */
    void setCaptureCnf(Cnf *sink) { capture = sink; }

    /** Replay a captured formula (same variable numbering). */
    void loadCnf(const Cnf &cnf);

    /**
     * Record a DRAT proof of unsatisfiability into the sink: learned
     * clauses as lemma additions, reduceDb() victims as deletions, and
     * the empty clause once the formula is refuted. Set before adding
     * the formula; null stops recording. Input clauses are the proof's
     * axioms and are not recorded (pair with setCaptureCnf to snapshot
     * them). The empty clause is suppressed for Unsat verdicts caused
     * by assumptions — such verdicts are conditional and carry no
     * proof. The sink must outlive the solver's use of it.
     */
    void setProofSink(DratProof *sink) { proof = sink; }

    const Stats &stats() const { return statistics; }

    /**
     * CDCL phases for the stride-sampled time profiler
     * (setPhaseProfiling). Unscoped so the enumerators index the
     * PhaseProfile arrays directly.
     */
    enum Phase
    {
        PhasePropagate = 0,
        PhaseAnalyze,
        PhaseDecide,
        PhaseReduceDb,
        PhaseRestart,
        PhaseSimplify,
        kNumPhases,
    };

    /**
     * Accumulated phase attribution. `ns` covers only the sampled
     * calls (every 16th for the hot phases, every call for
     * reduceDb/restart), so the estimated total time of phase p is
     * ns[p] * calls[p] / samples[p]. Flushed into the obs registry as
     * sat.phase.<name>.{ns,samples,calls} once per solve().
     */
    struct PhaseProfile
    {
        uint64_t ns[kNumPhases] = {};
        uint64_t samples[kNumPhases] = {};
        uint64_t calls[kNumPhases] = {};
    };

    /**
     * Enable phase-attributed profiling of solve() (`--profile-sat`).
     * Off by default: the disabled cost is one predictable branch per
     * phase call, and the timing code compiles out entirely with
     * OWL_OBS_ENABLED=0 (same discipline as the obs macros).
     */
    void setPhaseProfiling(bool on) { profilePhases = on; }
    bool phaseProfiling() const { return profilePhases; }
    const PhaseProfile &phaseProfile() const { return phaseProf; }

    /**
     * Audit the two-watched-literal invariants at a quiescent point
     * (no propagation pending): every watcher references a live
     * clause, watched literals sit at positions 0/1, and every live
     * clause of size >= 2 is watched exactly once from each of its
     * first two literals. Appended to the report as cnf.watch-*
     * diagnostics by the CNF lint pass; debug builds also run it at
     * solve() entry and exit.
     *
     * @return number of violations found (0 = invariants hold).
     */
    int auditWatchInvariants(lint::Report *report = nullptr) const;

    /**
     * Snapshot of the learned-clause database (live clauses only),
     * for tests and diagnostics: every learned clause must be a
     * logical consequence of the original formula, assumptions or
     * not — soundness harnesses re-check that by refutation.
     */
    std::vector<std::vector<Lit>> learnedClauseDb() const;

    /**
     * The literals fixed on the root-level trail (formula-implied
     * units: original unit clauses, learned units, and their
     * propagation closure). Same diagnostic contract as
     * learnedClauseDb(): each must follow from the formula alone.
     */
    std::vector<Lit> rootFixedLiterals() const;

  private:
    /** The pre/inprocessing engine (sat/simp.cc) works in-place. */
    friend class Simplifier;

    // Truth values: 0 = true, 1 = false, 2 = unassigned; chosen so
    // that value(lit) = assigns[var] ^ sign works out.
    static constexpr uint8_t lTrue = 0;
    static constexpr uint8_t lFalse = 1;
    static constexpr uint8_t lUndef = 2;

    /**
     * A clause header. Its literals are arena[off, off + size), read
     * through litsOf(); clauses are still addressed by index, so
     * watchers, reasons and occurrence lists hold ints. Offsets rise
     * with the clause index (both only ever append, and compaction
     * keeps the order), which lets compactArena() slide every clause
     * down in one forward pass.
     */
    struct Clause
    {
        uint32_t off = 0;
        uint32_t size = 0;
        bool learned = false;
        bool deleted = false;
        int lbd = 0;
        double activity = 0.0;
    };

    struct Watcher
    {
        int clauseIdx;
        Lit blocker;
    };

    int nVars = 0;
    bool unsatisfiable = false;

    std::vector<Clause> clauses;
    /**
     * Every clause's literals, back to back (see Clause). A deleted
     * or strengthened clause leaves its dropped literals behind as
     * garbage until the next compactArena(). An append can move the
     * arena, so no span from litsOf() is held across addClause(),
     * addClauseInternal() or a resolvent store.
     */
    std::vector<Lit> arena;
    /** Literals in the arena that no live clause owns. */
    size_t arenaGarbage = 0;
    std::vector<std::vector<Watcher>> watches; // indexed by lit code
    std::vector<uint8_t> assigns;              // per var
    std::vector<int> levels;                   // per var
    std::vector<int> reasons;                  // clause idx or -1, per var
    std::vector<Lit> trail;
    std::vector<int> trailLims;
    size_t propagateHead = 0;

    // VSIDS
    std::vector<double> activity;
    double varInc = 1.0;
    std::vector<int> heap;     // binary max-heap of variables
    std::vector<int> heapPos;  // var -> heap index or -1
    std::vector<bool> savedPhase;

    double claInc = 1.0;
    uint64_t learnedLimit = 8192;
    /**
     * Learned clauses live in the DB, maintained exactly: incremented
     * when a learnt clause is attached, decremented by the number
     * reduceDb() actually deleted and by every learned clause the
     * simplifier removes. A member (not a solve() local) so reduction
     * timing stays correct across incremental solve calls.
     */
    uint64_t liveLearned = 0;
    /** Model snapshot (per var) taken when solve() returns Sat. */
    std::vector<uint8_t> model;
    bool lastUnsatConditional = false;
    std::vector<Lit> failedAssumptionsOut;

    // ---- pre/inprocessing state (sat/simp.cc) ----
    std::vector<uint8_t> frozenV; ///< per var: never eliminate
    std::vector<uint8_t> elimV;   ///< per var: eliminated by BVE
    int nEliminated = 0;
    /**
     * Model-reconstruction stack. One record per clause of the
     * smaller original side of each eliminated variable (that
     * variable's literal first), followed by a one-literal default
     * record, pushed in elimination order. extendModel() replays it
     * backwards so every returned model covers eliminated variables
     * and satisfies the pre-elimination formula. Stored flat: record
     * k is elimLits[elimEnd[k-1], elimEnd[k]) (from 0 for k = 0).
     */
    std::vector<Lit> elimLits;
    std::vector<size_t> elimEnd;
    SimpStats simpStatistics;
    /**
     * Clauses ever appended to `clauses` (input, learned, BVE
     * resolvents). Each simplification round compacts deleted
     * clauses out of the array, so the solve-entry trigger measures
     * database growth on this running count, not on clauses.size().
     */
    size_t clausesAdded = 0;
    /** clausesAdded after the last simplification round. */
    size_t simpClausesSeen = 0;
    /** Index of the first clause added since the last round. */
    size_t simpNewFrom = 0;
    /** trail.size() after the last simplification round. */
    size_t simpTrailSeen = 0;
    bool simpEverRan = false;
    /** statistics.conflicts at the last round (inprocessing cadence). */
    uint64_t simpConflictsAt = 0;
    /** Rotating failed-literal probe start var. */
    int probeCursor = 0;
    /** Vars already flushed into sat.preprocess.vars_total. */
    uint64_t varsCounted = 0;

    std::chrono::milliseconds timeLimit{0};
    uint64_t conflictLimit = 0;
    const std::atomic<bool> *cancelFlag = nullptr;
    Cnf *capture = nullptr;
    DratProof *proof = nullptr;
    Options opts;
    Stats statistics;

    bool profilePhases = false;
    PhaseProfile phaseProf;
    /**
     * Per-solve learned-clause LBD accumulator (plain, no atomics —
     * the hot-loop discipline), bulk-merged into the `sat.lbd`
     * histogram by the per-solve flush.
     */
    obs::LocalHistogram lbdLocal;

    /** Sampling stride per phase (power of two; 1 = every call). */
    static constexpr uint64_t phaseStride(int phase)
    {
        return phase == PhaseReduceDb || phase == PhaseRestart ||
                       phase == PhaseSimplify
                   ? 1
                   : 16;
    }

    /**
     * Run one phase body, attributing its time on the sampling
     * stride. The profiling-off path is a single branch; with
     * OWL_OBS_ENABLED=0 the body is called directly.
     */
    template <typename F>
    auto profiled(int phase, F &&f)
    {
#if OWL_OBS_ENABLED
        if (profilePhases) {
            uint64_t n = ++phaseProf.calls[phase];
            if ((n & (phaseStride(phase) - 1)) == 0) {
                uint64_t t0 = obs::nowNs();
                if constexpr (std::is_void_v<decltype(f())>) {
                    f();
                    phaseProf.ns[phase] += obs::nowNs() - t0;
                    phaseProf.samples[phase]++;
                    return;
                } else {
                    auto r = f();
                    phaseProf.ns[phase] += obs::nowNs() - t0;
                    phaseProf.samples[phase]++;
                    return r;
                }
            }
        }
#else
        (void)phase;
#endif
        return std::forward<F>(f)();
    }

    // Scratch for conflict analysis, kept across conflicts so that a
    // conflict allocates nothing once the buffers have grown.
    std::vector<uint8_t> seen;
    std::vector<Lit> analyzeDropped;   ///< analyze(): minimized away
    std::vector<Lit> redundantStack;   ///< litRedundant() worklist
    std::vector<int> redundantCleared; ///< litRedundant() seen marks
    std::vector<int> lbdLevels;        ///< solve(): learned-clause LBD
    /** addClause() normalisation buffer. */
    std::vector<Lit> addScratch;

    std::span<Lit> litsOf(const Clause &c)
    {
        return {arena.data() + c.off, c.size};
    }
    std::span<const Lit> litsOf(const Clause &c) const
    {
        return {arena.data() + c.off, c.size};
    }

    uint8_t value(int var) const { return assigns[var]; }
    uint8_t value(Lit l) const
    {
        uint8_t v = assigns[l.var()];
        return v == lUndef ? lUndef : (v ^ (l.negated() ? 1 : 0));
    }
    int decisionLevel() const { return trailLims.size(); }

    void enqueue(Lit l, int reason);
    int propagate(); // returns conflicting clause idx or -1
    void analyze(int confl, std::vector<Lit> &learnt, int &bt_level);
    /** Assumption core of a falsified assumption (MiniSat style). */
    void analyzeFinal(Lit a);
    bool litRedundant(Lit l, uint32_t levels_mask);
    void backtrack(int level);
    Lit pickBranchLit();
    void attachClause(int ci);
    /** Store and watch a normalised clause of two or more literals. */
    int addClauseInternal(std::span<const Lit> lits, bool learned);
    /**
     * Give the literals arena[off, arena.size()) a clause header (not
     * watched yet); returns the new clause index.
     */
    int commitClause(size_t off, bool learned);
    /**
     * Mark a clause deleted; its literals become arena garbage.
     * Callers log the DRAT deletion (which needs the literals) first;
     * watchers of a deleted clause are dropped lazily without reading
     * them.
     */
    void releaseClause(Clause &c)
    {
        c.deleted = true;
        arenaGarbage += c.size;
        c.size = 0;
    }
    /**
     * Slide every live clause's literals down over the garbage, in
     * clause order, and rewrite the offsets. Clause indices do not
     * change, so watchers and reasons stay valid.
     */
    void compactArena();
    /** @return the number of learned clauses actually deleted. */
    size_t reduceDb();
    void bumpVar(int var);
    void bumpClause(int ci);
    void decayActivities();

    // Heap helpers.
    void heapInsert(int var);
    void heapUpdate(int var);
    int heapPop();
    bool heapLess(int a, int b) const
    {
        return activity[a] > activity[b];
    }
    void heapSiftUp(int i);
    void heapSiftDown(int i);

    /**
     * Complete the model snapshot for eliminated variables by
     * replaying the elimination records backwards (MiniSat's extend-model).
     * Runs right after the Sat snapshot so modelValue() — and the
     * bit-blaster's model decoding built on it — always covers every
     * variable.
     */
    void extendModel();

    bool cancelRequested() const
    {
        return cancelFlag &&
               cancelFlag->load(std::memory_order_relaxed);
    }

    static uint64_t luby(uint64_t i);
};

} // namespace owl::sat

#endif // OWL_SAT_SOLVER_H
