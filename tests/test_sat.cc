/**
 * @file
 * Tests for the CDCL SAT solver: hand-built instances, pigeonhole
 * (hard UNSAT), and randomized 3-SAT differentially checked against a
 * brute-force enumerator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>

#include "sat/drat.h"
#include "sat/solver.h"

using owl::sat::DratProof;
using owl::sat::DratStep;
using owl::sat::Lit;
using owl::sat::Result;
using owl::sat::Solver;

TEST(Sat, TrivialSat)
{
    Solver s;
    int a = s.newVar();
    s.addClause(Lit(a, false));
    EXPECT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.modelValue(a));
}

TEST(Sat, TrivialUnsat)
{
    Solver s;
    int a = s.newVar();
    s.addClause(Lit(a, false));
    s.addClause(Lit(a, true));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Sat, EmptyClauseUnsat)
{
    Solver s;
    (void)s.newVar();
    EXPECT_FALSE(s.addClause(std::vector<Lit>{}));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Sat, UnitPropagationChain)
{
    Solver s;
    const int n = 50;
    std::vector<int> v;
    for (int i = 0; i < n; i++)
        v.push_back(s.newVar());
    // v0 and (vi -> vi+1) for all i; then require !v_{n-1}: UNSAT.
    s.addClause(Lit(v[0], false));
    for (int i = 0; i + 1 < n; i++)
        s.addClause(Lit(v[i], true), Lit(v[i + 1], false));
    EXPECT_EQ(s.solve(), Result::Sat);
    for (int i = 0; i < n; i++)
        EXPECT_TRUE(s.modelValue(v[i]));
    s.addClause(Lit(v[n - 1], true));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Sat, TautologyIgnored)
{
    Solver s;
    int a = s.newVar();
    EXPECT_TRUE(s.addClause(Lit(a, false), Lit(a, true)));
    EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Sat, XorChainSat)
{
    // x1 ^ x2 ^ ... parity constraints keep the solver honest about
    // clause learning; encode a ^ b = c for a chain and pin endpoints.
    Solver s;
    const int n = 20;
    std::vector<int> x;
    for (int i = 0; i < n; i++)
        x.push_back(s.newVar());
    auto add_xor = [&](int a, int b, int c) {
        // c = a xor b
        s.addClause(Lit(a, true), Lit(b, true), Lit(c, true));
        s.addClause(Lit(a, false), Lit(b, false), Lit(c, true));
        s.addClause(Lit(a, true), Lit(b, false), Lit(c, false));
        s.addClause(Lit(a, false), Lit(b, true), Lit(c, false));
    };
    for (int i = 0; i + 2 < n; i++)
        add_xor(x[i], x[i + 1], x[i + 2]);
    s.addClause(Lit(x[0], false));
    EXPECT_EQ(s.solve(), Result::Sat);
    for (int i = 0; i + 2 < n; i++) {
        EXPECT_EQ(s.modelValue(x[i + 2]),
                  s.modelValue(x[i]) ^ s.modelValue(x[i + 1]));
    }
}

TEST(Sat, Pigeonhole4Into3Unsat)
{
    // PHP(4,3): 4 pigeons in 3 holes, classic hard-ish UNSAT.
    Solver s;
    const int p = 4, h = 3;
    std::vector<std::vector<int>> v(p, std::vector<int>(h));
    for (int i = 0; i < p; i++)
        for (int j = 0; j < h; j++)
            v[i][j] = s.newVar();
    for (int i = 0; i < p; i++) {
        std::vector<Lit> cl;
        for (int j = 0; j < h; j++)
            cl.push_back(Lit(v[i][j], false));
        s.addClause(cl);
    }
    for (int j = 0; j < h; j++)
        for (int i1 = 0; i1 < p; i1++)
            for (int i2 = i1 + 1; i2 < p; i2++)
                s.addClause(Lit(v[i1][j], true), Lit(v[i2][j], true));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Sat, AssumptionsDoNotStick)
{
    Solver s;
    int a = s.newVar(), b = s.newVar();
    s.addClause(Lit(a, false), Lit(b, false));
    // Assume !a and !b: unsat under assumptions.
    EXPECT_EQ(s.solve({Lit(a, true), Lit(b, true)}), Result::Unsat);
    // Without assumptions the formula is still satisfiable.
    EXPECT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.modelValue(a) || s.modelValue(b));
}

TEST(Sat, ConflictLimitReturnsUnknown)
{
    // PHP(7,6) needs more than 1 conflict.
    Solver s;
    const int p = 7, h = 6;
    std::vector<std::vector<int>> v(p, std::vector<int>(h));
    for (int i = 0; i < p; i++)
        for (int j = 0; j < h; j++)
            v[i][j] = s.newVar();
    for (int i = 0; i < p; i++) {
        std::vector<Lit> cl;
        for (int j = 0; j < h; j++)
            cl.push_back(Lit(v[i][j], false));
        s.addClause(cl);
    }
    for (int j = 0; j < h; j++)
        for (int i1 = 0; i1 < p; i1++)
            for (int i2 = i1 + 1; i2 < p; i2++)
                s.addClause(Lit(v[i1][j], true), Lit(v[i2][j], true));
    s.setConflictLimit(1);
    EXPECT_EQ(s.solve(), Result::Unknown);
    s.setConflictLimit(0);
    EXPECT_EQ(s.solve(), Result::Unsat);
}

namespace
{

/** Brute-force satisfiability of a CNF over n <= 20 vars. */
bool
bruteForceSat(int n, const std::vector<std::vector<Lit>> &cnf)
{
    for (uint32_t m = 0; m < (1u << n); m++) {
        bool ok = true;
        for (const auto &cl : cnf) {
            bool sat = false;
            for (Lit l : cl) {
                bool val = (m >> l.var()) & 1;
                if (val != l.negated()) {
                    sat = true;
                    break;
                }
            }
            if (!sat) {
                ok = false;
                break;
            }
        }
        if (ok)
            return true;
    }
    return false;
}

} // namespace

class SatRandom3Sat : public ::testing::TestWithParam<int>
{
};

TEST_P(SatRandom3Sat, MatchesBruteForce)
{
    // Random 3-SAT near the phase transition (ratio ~4.3) over a small
    // variable count so brute force stays cheap.
    const int n = 12;
    std::mt19937 rng(GetParam());
    for (int round = 0; round < 30; round++) {
        int m = 40 + rng() % 25;
        std::vector<std::vector<Lit>> cnf;
        Solver s;
        for (int i = 0; i < n; i++)
            (void)s.newVar();
        for (int c = 0; c < m; c++) {
            std::vector<Lit> cl;
            for (int k = 0; k < 3; k++)
                cl.push_back(Lit(rng() % n, rng() % 2));
            cnf.push_back(cl);
            s.addClause(cl);
        }
        bool expect = bruteForceSat(n, cnf);
        Result got = s.solve();
        ASSERT_EQ(got == Result::Sat, expect)
            << "divergence at seed " << GetParam() << " round " << round;
        if (got == Result::Sat) {
            // Verify the produced model actually satisfies the CNF.
            for (const auto &cl : cnf) {
                bool sat = false;
                for (Lit l : cl)
                    sat |= s.modelValue(l.var()) != l.negated();
                ASSERT_TRUE(sat) << "model does not satisfy clause";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatRandom3Sat,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- capture, cancellation and limits ------------------------------------

namespace
{

/** PHP(p, h) clauses: forces genuine CDCL search when p > h. */
void
addPigeonhole(Solver &s, int p, int h)
{
    std::vector<std::vector<int>> v(p, std::vector<int>(h));
    for (int i = 0; i < p; i++)
        for (int j = 0; j < h; j++)
            v[i][j] = s.newVar();
    for (int i = 0; i < p; i++) {
        std::vector<Lit> cl;
        for (int j = 0; j < h; j++)
            cl.push_back(Lit(v[i][j], false));
        s.addClause(cl);
    }
    for (int j = 0; j < h; j++)
        for (int i1 = 0; i1 < p; i1++)
            for (int i2 = i1 + 1; i2 < p; i2++)
                s.addClause(Lit(v[i1][j], true), Lit(v[i2][j], true));
}

} // namespace

TEST(Sat, CnfCaptureAndReplayMatches)
{
    // setCaptureCnf records exactly what addClause saw; loadCnf into a
    // fresh default solver must reproduce the original answer.
    owl::sat::Cnf cnf;
    Solver s;
    s.setCaptureCnf(&cnf);
    addPigeonhole(s, 5, 4);
    EXPECT_EQ(cnf.numVars, s.numVars());
    EXPECT_EQ(s.solve(), Result::Unsat);

    Solver replay;
    replay.loadCnf(cnf);
    EXPECT_EQ(replay.numVars(), cnf.numVars);
    EXPECT_EQ(replay.solve(), Result::Unsat);
}

TEST(Sat, CancelFlagAbortsSolve)
{
    // A pre-set cancel flag returns Unknown before any search, on
    // every solve while it stays set; clearing it lets the same
    // solver finish.
    std::atomic<bool> flag{false};
    Solver s;
    addPigeonhole(s, 8, 7);
    s.setCancelFlag(&flag);
    flag.store(true);
    EXPECT_EQ(s.solve(), Result::Unknown);
    EXPECT_EQ(s.solve(), Result::Unknown);
    flag.store(false);
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Sat, TimeLimitPollsOnDecisionStride)
{
    // A huge conflict-free satisfiable fill-in never takes the
    // conflict-branch polls, so the wall-clock budget must be noticed
    // on the decision stride. Regression: solve() used to check
    // timeLimit only after conflicts and would blow arbitrarily far
    // past the deadline here.
    Solver s;
    const int n = 400000;
    for (int i = 0; i < n; i++)
        (void)s.newVar();
    // A token clause so the instance is not literally empty.
    s.addClause(Lit(0, false), Lit(1, false));
    s.setTimeLimit(std::chrono::milliseconds(1));
    auto t0 = std::chrono::steady_clock::now();
    Result r = s.solve();
    auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(r, Result::Unknown);
    // Generous bound: the stride poll fires every 1024 decisions, so
    // an abort within seconds proves the poll ran; without it this
    // instance assigns all 400k vars regardless of the deadline.
    EXPECT_LT(elapsed, std::chrono::seconds(30));
    // With the budget lifted the same solver finishes.
    s.setTimeLimit(std::chrono::milliseconds(0));
    EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Sat, IncrementalReuseInterleavedAddClause)
{
    // One long-lived solver, clauses added between solve() calls:
    // every model must satisfy the clauses added so far, and blocking
    // each model must eventually flip the verdict to Unsat.
    Solver s;
    const int n = 8;
    std::vector<int> v;
    for (int i = 0; i < n; i++)
        v.push_back(s.newVar());
    // Parity-ish seed constraints to leave a handful of models.
    s.addClause(Lit(v[0], false), Lit(v[1], false));
    s.addClause(Lit(v[2], true), Lit(v[3], false));
    int models = 0;
    while (s.solve() == Result::Sat && models < 300) {
        models++;
        std::vector<Lit> block;
        for (int i = 0; i < n; i++)
            block.push_back(Lit(v[i], s.modelValue(v[i])));
        // Blocking the final model may already refute the formula
        // during addClause's own unit propagation.
        if (!s.addClause(block))
            break;
    }
    // (3/4)^2 of the 2^8 assignments satisfy both seed clauses.
    EXPECT_EQ(models, 144);
    EXPECT_EQ(s.solve(), Result::Unsat);
    EXPECT_FALSE(s.lastUnsatWasConditional());
}

TEST(Sat, AssumptionCoreExcludesIrrelevant)
{
    Solver s;
    int a = s.newVar(), b = s.newVar(), c = s.newVar();
    s.addClause(Lit(a, false), Lit(b, false)); // a | b
    // Assume !c first: it must not appear in the final core even
    // though it was decided before the conflicting pair.
    Result r = s.solve({Lit(c, true), Lit(a, true), Lit(b, true)});
    EXPECT_EQ(r, Result::Unsat);
    EXPECT_TRUE(s.lastUnsatWasConditional());
    const auto &core = s.failedAssumptions();
    ASSERT_FALSE(core.empty());
    for (Lit l : core) {
        EXPECT_NE(l.var(), c);
        EXPECT_TRUE(l.var() == a || l.var() == b);
    }
    // The verdict is per-call: the formula itself stays satisfiable.
    EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Sat, UnconditionalUnsatUnderAssumptions)
{
    // A formula-level refutation reached while assumptions are in
    // play must still be reported as unconditional (and latch).
    Solver s;
    addPigeonhole(s, 5, 4);
    int extra = s.newVar();
    EXPECT_EQ(s.solve({Lit(extra, false)}), Result::Unsat);
    EXPECT_FALSE(s.lastUnsatWasConditional());
    // Latched: subsequent calls answer immediately.
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Sat, LearnedClauseAccountingExact)
{
    // Force reduceDb() with a tiny learned-clause budget and check
    // the live count tracks the database exactly. Regression: the
    // caller used to halve its counter while reduceDb() exempts
    // reasons and binary clauses, so the two drifted apart.
    Solver::Options o;
    o.learnedLimitBase = 16;
    Solver s(o);
    addPigeonhole(s, 7, 6);
    EXPECT_EQ(s.solve(), Result::Unsat);
    const auto &st = s.stats();
    EXPECT_GT(st.learnedDeleted, 0u);
    EXPECT_EQ(s.liveLearnedClauses(),
              st.learnedClauses - st.learnedUnits - st.learnedDeleted);
}

namespace
{

/** m random 3-literal clauses over n variables, no repeated var. */
std::vector<std::vector<Lit>>
random3Sat(int n, int m, uint32_t seed)
{
    std::mt19937 rng(seed);
    std::vector<std::vector<Lit>> cnf;
    while (static_cast<int>(cnf.size()) < m) {
        std::vector<Lit> cl;
        while (cl.size() < 3) {
            // Two statements: the draws must not depend on the
            // compiler's argument evaluation order.
            int var = static_cast<int>(rng() % n);
            Lit l(var, rng() % 2 == 0);
            bool dup = false;
            for (Lit e : cl)
                dup = dup || e.var() == l.var();
            if (!dup)
                cl.push_back(l);
        }
        cnf.push_back(cl);
    }
    return cnf;
}

/**
 * The checks a moved clause database must pass after a solve: every
 * clause watched twice from its first two literals, and the O(1)
 * learned count equal to a recount.
 */
void
expectDatabaseIntact(const Solver &s)
{
    EXPECT_EQ(s.auditWatchInvariants(), 0);
    EXPECT_EQ(s.liveLearnedClauses(), s.liveLearnedCount());
}

} // namespace

TEST(Sat, ArenaCompactionKeepsTheClauseDatabase)
{
    // A small learned-clause budget makes reduceDb() delete often
    // enough that its garbage passes half the arena, so it compacts
    // mid-search and moves live learned clauses, reasons among them.
    // The simp copies also compact at every round end, inprocessing
    // included. A compaction that lost, reordered or misplaced a
    // literal shows up as a watch violation, a proof step the checker
    // rejects, or a model that misses an original clause.
    for (bool simp : {false, true}) {
        SCOPED_TRACE(simp ? "simp" : "no simp");
        Solver::Options o;
        o.learnedLimitBase = 8;
        o.restartBase = 16;
        o.simp.enabled = simp;
        o.simp.inprocessConflicts = 256;

        owl::sat::Cnf cnf;
        DratProof proof;
        Solver unsat(o);
        unsat.setCaptureCnf(&cnf);
        unsat.setProofSink(&proof);
        addPigeonhole(unsat, 8, 7);
        ASSERT_EQ(unsat.solve(), Result::Unsat);
        expectDatabaseIntact(unsat);
        EXPECT_TRUE(owl::sat::checkDrat(cnf, proof));
        const auto &st = unsat.stats();
        EXPECT_GT(st.learnedDeleted, 0u);
        if (simp) {
            EXPECT_GT(unsat.simpStats().rounds, 1u);
            EXPECT_GT(st.arenaCompactions, unsat.simpStats().rounds);
        } else {
            EXPECT_GT(st.arenaCompactions, 0u);
        }

        // Satisfiable, near the 3-SAT threshold: a few thousand
        // conflicts.
        const int n = 200;
        std::vector<std::vector<Lit>> formula = random3Sat(n, 840, 1);
        Solver sat(o);
        for (int i = 0; i < n; i++)
            (void)sat.newVar();
        for (const auto &cl : formula)
            ASSERT_TRUE(sat.addClause(cl));
        ASSERT_EQ(sat.solve(), Result::Sat);
        expectDatabaseIntact(sat);
        EXPECT_GT(sat.stats().arenaCompactions, 0u);
        for (const auto &cl : formula) {
            bool satisfied = false;
            for (Lit l : cl)
                satisfied |= sat.modelValue(l.var()) != l.negated();
            EXPECT_TRUE(satisfied);
        }
    }
}

TEST(Sat, FailedAssumptionSolvesLeaveSolverSound)
{
    // Regression for the incremental-session bug: analyzeFinal() used
    // to leave stray seen marks behind on every conditional-Unsat
    // return, which silently dropped literals from clauses learned in
    // *later* solve() calls on the same solver. Drive a session of
    // assumption solves and differentially check every verdict and
    // every retained lemma against fresh solvers.
    std::mt19937 rng(2);
    const int n = 40;
    std::vector<std::vector<Lit>> formula;
    Solver inc;
    for (int i = 0; i < n; i++)
        (void)inc.newVar();
    auto rnd3 = [&]() {
        std::vector<Lit> cl;
        while (cl.size() < 3) {
            Lit l(static_cast<int>(rng() % n), rng() % 2 == 0);
            bool dup = false;
            for (Lit e : cl)
                dup = dup || e.var() == l.var();
            if (!dup)
                cl.push_back(l);
        }
        return cl;
    };
    for (int i = 0; i < 3 * n; i++) {
        auto cl = rnd3();
        formula.push_back(cl);
        ASSERT_TRUE(inc.addClause(cl));
    }
    auto implied = [&](const std::vector<Lit> &clause) {
        Solver ref;
        for (int i = 0; i < n; i++)
            (void)ref.newVar();
        for (const auto &cl : formula) {
            if (!ref.addClause(cl))
                return true;
        }
        for (Lit l : clause) {
            if (!ref.addClause({~l}))
                return true;
        }
        return ref.solve() == Result::Unsat;
    };
    for (int round = 0; round < 12; round++) {
        std::vector<Lit> assum;
        std::vector<int> pool(n);
        for (int i = 0; i < n; i++)
            pool[i] = i;
        std::shuffle(pool.begin(), pool.end(), rng);
        for (size_t i = 0; i < 2 + rng() % 6; i++)
            assum.push_back(Lit(pool[i], rng() % 2 == 0));
        Result got = inc.solve(assum);
        Solver ref;
        for (int i = 0; i < n; i++)
            (void)ref.newVar();
        bool ok = true;
        for (const auto &cl : formula)
            ok = ok && ref.addClause(cl);
        for (Lit l : assum)
            ok = ok && ref.addClause({l});
        Result want = ok ? ref.solve() : Result::Unsat;
        ASSERT_EQ(got, want) << "round " << round;
        // Everything the incremental solver retains must follow from
        // the formula alone, assumptions or not.
        for (const auto &lemma : inc.learnedClauseDb())
            ASSERT_TRUE(implied(lemma)) << "unsound lemma, round "
                                        << round;
        for (Lit l : inc.rootFixedLiterals())
            ASSERT_TRUE(implied({l})) << "unsound root unit, round "
                                      << round;
    }
    EXPECT_EQ(inc.solve(), Result::Sat);
}

// ---------------------------------------------------------------------
// addClause normalization: literals sorted by index, duplicates and
// root-false literals dropped, tautologies and root-satisfied clauses
// ignored, a lone survivor enqueued and propagated, no survivor a
// refutation.
// ---------------------------------------------------------------------

namespace
{

/**
 * The clauses `s` holds, in stored literal order, read back through
 * the public API: a root unit on `sat_lit` satisfies every stored
 * clause (each must contain it), and the next simplification round
 * deletes them, logging their literals to the DRAT proof. Freezing
 * every variable keeps elimination out of the round.
 */
std::vector<std::vector<Lit>>
storedClauses(Solver &s, Lit sat_lit)
{
    DratProof proof;
    s.setProofSink(&proof);
    for (int v = 0; v < s.numVars(); v++)
        s.setFrozen(v);
    EXPECT_TRUE(s.addClause(sat_lit));
    EXPECT_TRUE(s.simplify());
    s.setProofSink(nullptr);
    std::vector<std::vector<Lit>> out;
    for (const DratStep &st : proof.steps) {
        if (st.isDelete)
            out.push_back(st.lits);
    }
    return out;
}

} // namespace

TEST(SatAddClause, StoresLiteralsInIndexOrder)
{
    Solver s;
    int a = s.newVar(), b = s.newVar(), c = s.newVar();
    EXPECT_TRUE(s.addClause(Lit(c, false), Lit(a, true), Lit(b, false)));
    auto stored = storedClauses(s, Lit(b, false));
    ASSERT_EQ(stored.size(), 1u);
    EXPECT_EQ(stored[0], (std::vector<Lit>{Lit(a, true), Lit(b, false),
                                           Lit(c, false)}));
}

TEST(SatAddClause, DropsDuplicates)
{
    Solver s;
    int a = s.newVar(), b = s.newVar();
    EXPECT_TRUE(s.addClause(std::vector<Lit>{
        Lit(b, true), Lit(a, false), Lit(b, true), Lit(a, false),
        Lit(b, true)}));
    auto stored = storedClauses(s, Lit(a, false));
    ASSERT_EQ(stored.size(), 1u);
    EXPECT_EQ(stored[0], (std::vector<Lit>{Lit(a, false), Lit(b, true)}));
}

TEST(SatAddClause, IgnoresTautologies)
{
    Solver s;
    int a = s.newVar(), b = s.newVar();
    EXPECT_TRUE(s.addClause(Lit(b, false), Lit(a, true), Lit(b, true)));
    EXPECT_TRUE(storedClauses(s, Lit(a, false)).empty());
    // Nothing was constrained: every assignment of b is still open.
    EXPECT_EQ(s.solve({Lit(b, true)}), Result::Sat);
    EXPECT_EQ(s.solve({Lit(b, false)}), Result::Sat);
}

TEST(SatAddClause, IgnoresRootSatisfiedClauses)
{
    Solver s;
    int a = s.newVar(), b = s.newVar(), c = s.newVar();
    EXPECT_TRUE(s.addClause(Lit(a, false)));
    EXPECT_TRUE(s.addClause(Lit(c, false), Lit(a, false), Lit(b, true)));
    EXPECT_TRUE(storedClauses(s, Lit(a, false)).empty());
    EXPECT_EQ(s.solve({Lit(b, false), Lit(c, true)}), Result::Sat);
}

TEST(SatAddClause, DropsRootFalseLiterals)
{
    Solver s;
    int a = s.newVar(), b = s.newVar(), c = s.newVar();
    EXPECT_TRUE(s.addClause(Lit(a, true)));
    EXPECT_TRUE(s.addClause(Lit(c, false), Lit(a, false), Lit(b, false)));
    auto stored = storedClauses(s, Lit(c, false));
    ASSERT_EQ(stored.size(), 1u);
    EXPECT_EQ(stored[0], (std::vector<Lit>{Lit(b, false), Lit(c, false)}));
}

TEST(SatAddClause, ReducedUnitIsEnqueuedAndPropagated)
{
    Solver s;
    int a = s.newVar(), b = s.newVar(), c = s.newVar();
    EXPECT_TRUE(s.addClause(Lit(b, true), Lit(c, false))); // b -> c
    EXPECT_TRUE(s.addClause(Lit(a, true)));
    // (a ∨ b ∨ a) with a false at the root is the unit b.
    EXPECT_TRUE(s.addClause(Lit(a, false), Lit(b, false), Lit(a, false)));
    std::vector<Lit> root = s.rootFixedLiterals();
    EXPECT_EQ(root, (std::vector<Lit>{Lit(a, true), Lit(b, false),
                                      Lit(c, false)}));
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.modelValue(b));
    EXPECT_TRUE(s.modelValue(c));
    // c is fixed at the root, so only the assumption is refuted.
    EXPECT_EQ(s.solve({Lit(c, true)}), Result::Unsat);
    EXPECT_TRUE(s.lastUnsatWasConditional());
}

TEST(SatAddClause, ReducedEmptyRefutesWithEmptyDratClause)
{
    Solver s;
    DratProof proof;
    s.setProofSink(&proof);
    int a = s.newVar(), b = s.newVar();
    EXPECT_TRUE(s.addClause(Lit(a, true)));
    EXPECT_TRUE(s.addClause(Lit(b, true)));
    EXPECT_FALSE(s.addClause(Lit(b, false), Lit(a, false), Lit(b, false)));
    ASSERT_EQ(proof.steps.size(), 1u);
    EXPECT_FALSE(proof.steps[0].isDelete);
    EXPECT_TRUE(proof.steps[0].lits.empty());
    EXPECT_EQ(s.solve(), Result::Unsat);
    // Latched: later clauses are refused without another proof step.
    EXPECT_FALSE(s.addClause(Lit(a, false), Lit(b, false)));
    EXPECT_EQ(proof.steps.size(), 1u);
}
