/**
 * @file
 * Tests for the SatELite-style pre/inprocessing pass (sat/simp):
 * the side-effect-free analysis helpers in sat/simp.h, solver-level
 * elimination with model reconstruction, frozen-variable discipline
 * across incremental sessions, DRAT emission under simplification,
 * and a randomized differential against the plain (simp-off) solver.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "base/logging.h"
#include "designs/alu_machine.h"
#include "oyster/symeval.h"
#include "smt/bitblast.h"
#include "smt/term.h"
#include "sat/drat.h"
#include "sat/simp.h"
#include "sat/solver.h"

using owl::PanicError;
using owl::sat::Cnf;
using owl::sat::DratProof;
using owl::sat::Lit;
using owl::sat::Result;
using owl::sat::Solver;
using owl::sat::simp::clauseSignature;
using owl::sat::simp::literalOccurrences;
using owl::sat::simp::SubsumeRel;
using owl::sat::simp::subsumeCheck;

namespace
{

Solver::Options
simpOn()
{
    Solver::Options o;
    o.simp.enabled = true;
    return o;
}

} // namespace

// ---------------------------------------------------------------------
// Analysis helpers (pure functions over literal vectors).
// ---------------------------------------------------------------------

TEST(SimpHelpers, ClauseSignatureIsSubsetFilter)
{
    std::vector<Lit> small = {Lit(0, false), Lit(3, true)};
    std::vector<Lit> big = {Lit(0, false), Lit(3, true), Lit(7, false)};
    uint64_t ss = clauseSignature(small);
    uint64_t sb = clauseSignature(big);
    // small ⊆ big, so every signature bit of small must be in big.
    EXPECT_EQ(ss & ~sb, 0u);
    // A literal outside big (and outside any hash collision with its
    // three literals) must set a bit big's signature lacks.
    std::vector<Lit> other = {Lit(1, false)};
    uint64_t so = clauseSignature(other);
    EXPECT_NE(so & ~sb, 0u);
}

TEST(SimpHelpers, SubsumeCheckSubsumes)
{
    std::vector<uint8_t> mark(20, 0);
    std::vector<Lit> small = {Lit(0, false), Lit(2, true)};
    std::vector<Lit> big = {Lit(0, false), Lit(1, false), Lit(2, true)};
    EXPECT_EQ(subsumeCheck(small, big, mark, nullptr),
              SubsumeRel::Subsumes);
    // Scratch must come back clean for the next pair.
    for (uint8_t m : mark)
        EXPECT_EQ(m, 0);
}

TEST(SimpHelpers, SubsumeCheckSelfSubsumesReportsPivot)
{
    std::vector<uint8_t> mark(20, 0);
    // small = (x0 ∨ x2), big = (x0 ∨ ~x2 ∨ x4): resolving on x2
    // yields (x0 ∨ x4), strictly stronger than big.
    std::vector<Lit> small = {Lit(0, false), Lit(2, false)};
    std::vector<Lit> big = {Lit(0, false), Lit(2, true), Lit(4, false)};
    Lit pivot;
    EXPECT_EQ(subsumeCheck(small, big, mark, &pivot),
              SubsumeRel::SelfSubsumes);
    EXPECT_EQ(pivot, Lit(2, false));
}

TEST(SimpHelpers, SubsumeCheckNone)
{
    std::vector<uint8_t> mark(20, 0);
    // Two flipped literals: not a subsumption, not a single-pivot
    // self-subsumption.
    std::vector<Lit> small = {Lit(0, false), Lit(2, false)};
    std::vector<Lit> big = {Lit(0, true), Lit(2, true), Lit(4, false)};
    EXPECT_EQ(subsumeCheck(small, big, mark, nullptr), SubsumeRel::None);
    // Larger clause can never subsume a smaller one.
    EXPECT_EQ(subsumeCheck(big, small, mark, nullptr), SubsumeRel::None);
    for (uint8_t m : mark)
        EXPECT_EQ(m, 0);
}

TEST(SimpHelpers, LiteralOccurrencesCountsAndFindsPures)
{
    Cnf cnf;
    cnf.numVars = 3;
    cnf.clauses = {
        {Lit(0, false), Lit(1, false)},
        {Lit(0, true), Lit(1, false)},
        {Lit(2, true)},
    };
    auto occ = literalOccurrences(cnf);
    ASSERT_EQ(occ.size(), 6u);
    EXPECT_EQ(occ[Lit(0, false).index()], 1u);
    EXPECT_EQ(occ[Lit(0, true).index()], 1u);
    EXPECT_EQ(occ[Lit(1, false).index()], 2u);
    EXPECT_EQ(occ[Lit(1, true).index()], 0u); // pure positive
    EXPECT_EQ(occ[Lit(2, false).index()], 0u);
    EXPECT_EQ(occ[Lit(2, true).index()], 1u); // pure negative
}

// ---------------------------------------------------------------------
// Solver-level elimination and model reconstruction.
// ---------------------------------------------------------------------

TEST(Simp, EliminationReconstructsModel)
{
    // y is a gate output (y ↔ a ∧ b) used once downstream: a classic
    // BVE target. The reconstructed model must satisfy the *original*
    // clauses, including the ones mentioning the eliminated variable.
    Solver s(simpOn());
    int a = s.newVar(), b = s.newVar(), y = s.newVar(),
        z = s.newVar();
    std::vector<std::vector<Lit>> original = {
        {Lit(y, true), Lit(a, false)},
        {Lit(y, true), Lit(b, false)},
        {Lit(y, false), Lit(a, true), Lit(b, true)},
        {Lit(y, false), Lit(z, false)},
        {Lit(a, false)},
        {Lit(b, false)},
    };
    for (const auto &c : original)
        s.addClause(c);
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_GT(s.simpStats().rounds, 0u);
    for (const auto &c : original) {
        bool satisfied = false;
        for (Lit l : c)
            satisfied |= s.modelValue(l.var()) != l.negated();
        EXPECT_TRUE(satisfied);
    }
    // a ∧ b forces y, whether y was eliminated or decided.
    EXPECT_TRUE(s.modelValue(y));
}

TEST(Simp, PureLiteralEliminated)
{
    // p occurs only positively: zero-resolvent elimination. The model
    // must still satisfy the clauses p appeared in.
    Solver s(simpOn());
    int p = s.newVar(), q = s.newVar();
    s.addClause(Lit(p, false), Lit(q, false));
    s.addClause(Lit(p, false), Lit(q, true));
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_GT(s.simpStats().pureLiterals, 0u);
    EXPECT_TRUE(s.modelValue(p));
}

TEST(Simp, SubsumptionAndStrengtheningCounted)
{
    Solver s(simpOn());
    int a = s.newVar(), b = s.newVar(), c = s.newVar();
    s.setFrozen(a);
    s.setFrozen(b);
    s.setFrozen(c);
    // (a ∨ b) subsumes (a ∨ b ∨ c); against (~a ∨ b ∨ c) it
    // self-subsumes on a, strengthening that clause to (b ∨ c).
    // The pass scans candidates through the subsumer's
    // lowest-occurrence literal, so pad a's occurrence list to make
    // b the scan literal — (~a ∨ b ∨ c) contains b, not a.
    s.addClause(Lit(a, false), Lit(b, false));
    s.addClause(Lit(a, false), Lit(b, false), Lit(c, false));
    s.addClause(Lit(a, true), Lit(b, false), Lit(c, false));
    s.addClause(Lit(a, false), Lit(c, false));
    s.addClause(Lit(a, false), Lit(c, true));
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_GT(s.simpStats().clausesSubsumed, 0u);
    EXPECT_GT(s.simpStats().clausesStrengthened, 0u);
}

TEST(Simp, FrozenVariableSurvivesRounds)
{
    // f is eliminable on its occurrence profile, but frozen: later
    // clauses will mention it. It must not be eliminated, and the
    // incremental session must stay sound.
    Solver s(simpOn());
    int f = s.newVar(), a = s.newVar(), b = s.newVar();
    s.setFrozen(f);
    s.addClause(Lit(f, true), Lit(a, false));
    s.addClause(Lit(f, true), Lit(b, false));
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_FALSE(s.isEliminated(f));
    EXPECT_TRUE(s.isFrozen(f));
    // Second phase: constrain f both ways via new clauses.
    s.addClause(Lit(f, false));
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.modelValue(f));
    EXPECT_TRUE(s.modelValue(a));
    EXPECT_TRUE(s.modelValue(b));
    // Assumption of the frozen variable's negation: conditional UNSAT.
    EXPECT_EQ(s.solve({Lit(f, true)}), Result::Unsat);
    EXPECT_TRUE(s.lastUnsatWasConditional());
    ASSERT_EQ(s.solve(), Result::Sat);
}

TEST(Simp, AssumingEliminatedVariablePanics)
{
    Solver s(simpOn());
    int g = s.newVar(), a = s.newVar();
    s.setFrozen(a);
    // g appears in two clauses, nothing else mentions it, not frozen:
    // BVE removes it.
    s.addClause(Lit(g, true), Lit(a, false));
    s.addClause(Lit(g, false), Lit(a, false));
    ASSERT_EQ(s.solve(), Result::Sat);
    if (!s.isEliminated(g))
        GTEST_SKIP() << "variable not eliminated under current limits";
    EXPECT_THROW((void)s.solve({Lit(g, false)}), PanicError);
}

TEST(Simp, FreezingEliminatedVariablePanics)
{
    // The third way back to an eliminated variable, after clauses and
    // assumptions: freezing it (as a later blast would freeze a stale
    // strash hit that became a cache output).
    Solver s(simpOn());
    int g = s.newVar(), a = s.newVar();
    s.setFrozen(a);
    s.addClause(Lit(g, true), Lit(a, false));
    s.addClause(Lit(g, false), Lit(a, false));
    ASSERT_EQ(s.solve(), Result::Sat);
    ASSERT_TRUE(s.isEliminated(g));
    EXPECT_THROW(s.setFrozen(g), PanicError);
    EXPECT_FALSE(s.isFrozen(g));
    s.setFrozen(g, false); // thawing stays harmless
}

TEST(Simp, FailedLiteralProbingDerivesUnit)
{
    // Implication chain x → a, a → b, x → ~b. Propagating x hits a
    // conflict, so probing must derive ~x at the root. Freezing every
    // variable blocks elimination and subsumption from resolving the
    // chain first, isolating the probe.
    Solver s(simpOn());
    int x = s.newVar(), a = s.newVar(), b = s.newVar();
    s.setFrozen(x);
    s.setFrozen(a);
    s.setFrozen(b);
    s.addClause(Lit(x, true), Lit(a, false));
    s.addClause(Lit(a, true), Lit(b, false));
    s.addClause(Lit(x, true), Lit(b, true));
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_GE(s.simpStats().failedLiterals, 1u);
    EXPECT_FALSE(s.modelValue(x));
}

// ---------------------------------------------------------------------
// Proof soundness: every rewrite is DRAT-logged, so an UNSAT proof
// produced under full simplification must replay against the raw CNF.
// ---------------------------------------------------------------------

TEST(Simp, UnsatProofReplaysUnderSimplification)
{
    Solver s(simpOn());
    Cnf cnf;
    DratProof proof;
    s.setCaptureCnf(&cnf);
    s.setProofSink(&proof);
    // XOR chain with contradictory parity: x0⊕x1, x1⊕x2, x0⊕x2
    // forced odd — UNSAT, and rich in simp targets.
    // t01 = x0⊕x1, t12 = x1⊕x2; asserting both forces x0 = x2, so
    // additionally asserting x0 ≠ x2 refutes the formula.
    int x0 = s.newVar(), x1 = s.newVar(), x2 = s.newVar();
    int t01 = s.newVar(), t12 = s.newVar();
    auto xorDef = [&](int t, int u, int v) {
        s.addClause(Lit(t, true), Lit(u, false), Lit(v, false));
        s.addClause(Lit(t, true), Lit(u, true), Lit(v, true));
        s.addClause(Lit(t, false), Lit(u, false), Lit(v, true));
        s.addClause(Lit(t, false), Lit(u, true), Lit(v, false));
    };
    xorDef(t01, x0, x1);
    xorDef(t12, x1, x2);
    s.addClause(Lit(t01, false));
    s.addClause(Lit(t12, false));
    s.addClause(Lit(x0, false), Lit(x2, false));
    s.addClause(Lit(x0, true), Lit(x2, true));
    EXPECT_EQ(s.solve(), Result::Unsat);
    EXPECT_FALSE(s.lastUnsatWasConditional());
    EXPECT_TRUE(proof.hasEmptyClause());
    owl::lint::Report r;
    EXPECT_TRUE(checkDrat(cnf, proof, &r)) << "DRAT replay failed";
    EXPECT_FALSE(r.hasErrors());
}

// ---------------------------------------------------------------------
// Randomized differential: simp-enabled vs plain solver must agree on
// every verdict; SAT models must satisfy the original clauses; UNSAT
// proofs must replay.
// ---------------------------------------------------------------------

TEST(Simp, RandomizedDifferentialAgainstPlainSolver)
{
    std::mt19937 rng(0xC1A05E);
    constexpr int kRounds = 60;
    constexpr int kVars = 24;
    for (int round = 0; round < kRounds; round++) {
        // Clause/variable ratio swept through the phase transition so
        // both verdicts occur.
        int n_clauses = 70 + (round % 5) * 12;
        std::vector<std::vector<Lit>> clauses;
        std::uniform_int_distribution<int> pickVar(0, kVars - 1);
        std::uniform_int_distribution<int> coin(0, 1);
        for (int i = 0; i < n_clauses; i++) {
            std::vector<Lit> c;
            while (c.size() < 3) {
                Lit l(pickVar(rng), coin(rng) == 1);
                bool dup = false;
                for (Lit e : c)
                    dup |= e.var() == l.var();
                if (!dup)
                    c.push_back(l);
            }
            clauses.push_back(c);
        }

        Solver plain;
        Solver simped(simpOn());
        Cnf cnf;
        DratProof proof;
        simped.setCaptureCnf(&cnf);
        simped.setProofSink(&proof);
        for (int v = 0; v < kVars; v++) {
            plain.newVar();
            simped.newVar();
        }
        for (const auto &c : clauses) {
            plain.addClause(c);
            simped.addClause(c);
        }
        Result rp = plain.solve();
        Result rs = simped.solve();
        ASSERT_EQ(rp, rs) << "verdict mismatch in round " << round;
        if (rs == Result::Sat) {
            for (const auto &c : clauses) {
                bool satisfied = false;
                for (Lit l : c)
                    satisfied |=
                        simped.modelValue(l.var()) != l.negated();
                ASSERT_TRUE(satisfied)
                    << "reconstructed model violates an original "
                       "clause in round "
                    << round;
            }
        } else {
            ASSERT_TRUE(proof.hasEmptyClause());
            owl::lint::Report r;
            ASSERT_TRUE(checkDrat(cnf, proof, &r))
                << "DRAT replay failed in round " << round;
        }
    }
}

// ---------------------------------------------------------------------
// Incremental frozen-assumption discipline: activation variables
// frozen up front stay usable as assumptions across many solves while
// inner gate variables get eliminated.
// ---------------------------------------------------------------------

TEST(Simp, IncrementalSessionWithActivationLiterals)
{
    Solver s(simpOn());
    constexpr int kGroups = 4;
    std::vector<int> act;
    for (int g = 0; g < kGroups; g++) {
        int v = s.newVar();
        s.setFrozen(v);
        act.push_back(v);
    }
    // Shared frozen interface variable; per-group gate chains hang
    // off it and are eliminable.
    int iface = s.newVar();
    s.setFrozen(iface);
    for (int g = 0; g < kGroups; g++) {
        int gate = s.newVar();
        // act[g] → (gate ↔ parity of group index with iface)
        bool odd = (g % 2) == 1;
        s.addClause(Lit(act[g], true), Lit(gate, true),
                    Lit(iface, !odd));
        s.addClause(Lit(act[g], true), Lit(gate, false),
                    Lit(iface, odd));
        // act[g] → gate
        s.addClause(Lit(act[g], true), Lit(gate, false));
    }
    // Groups 0/1 disagree on iface: assuming both is UNSAT; each
    // alone is SAT. Interleave solves so inprocessing state carries
    // across calls.
    for (int pass = 0; pass < 3; pass++) {
        ASSERT_EQ(s.solve({Lit(act[0], false)}), Result::Sat);
        EXPECT_FALSE(s.modelValue(iface));
        ASSERT_EQ(s.solve({Lit(act[1], false)}), Result::Sat);
        EXPECT_TRUE(s.modelValue(iface));
        ASSERT_EQ(s.solve({Lit(act[0], false), Lit(act[1], false)}),
                  Result::Unsat);
        EXPECT_TRUE(s.lastUnsatWasConditional());
    }
    for (int g = 0; g < kGroups; g++)
        EXPECT_FALSE(s.isEliminated(act[g]));
}

// ---------------------------------------------------------------------
// Golden fingerprints: the simplifier's exact output, pinned.
//
// Each input is solved with simplification on and everything a
// caller can observe through the public API is hashed: the verdict,
// SimpStats, the search counters, the (reconstructed) model, the
// failed-assumption cores and the DRAT proof. A performance change to
// sat/simp.cc must leave every digest unchanged — the rewrites, their
// order and the resulting watch order are part of the contract. A
// policy change (different limits, different rewrites) re-records the
// digests and says so; the failure message prints the new value.
// ---------------------------------------------------------------------

namespace
{

/** FNV-1a over 64-bit words. */
class Fingerprint
{
  public:
    void add(uint64_t x)
    {
        for (int i = 0; i < 8; i++) {
            h ^= (x >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    void addLits(const std::vector<Lit> &lits)
    {
        add(lits.size());
        for (Lit l : lits)
            add(static_cast<uint64_t>(l.index()));
    }
    /** Verdict, counters and model of a solve() that just returned. */
    void addSolve(const Solver &s, Result r)
    {
        add(static_cast<uint64_t>(r));
        const owl::sat::SimpStats &ss = s.simpStats();
        for (uint64_t x :
             {ss.rounds, ss.varsEliminated, ss.pureLiterals,
              ss.clausesSubsumed, ss.clausesStrengthened,
              ss.failedLiterals, ss.resolventsAdded, ss.clausesDeleted})
            add(x);
        const owl::sat::Stats &st = s.stats();
        for (uint64_t x : {st.conflicts, st.decisions, st.propagations,
                           st.restarts, st.learnedClauses,
                           st.learnedDeleted})
            add(x);
        if (r == Result::Sat) {
            for (int v = 0; v < s.numVars(); v++)
                add(s.modelValue(v) ? 1 : 0);
        } else if (r == Result::Unsat && s.lastUnsatWasConditional()) {
            addLits(s.failedAssumptions());
        }
    }
    void addProof(const DratProof &proof)
    {
        add(proof.steps.size());
        for (const auto &step : proof.steps) {
            add(step.isDelete ? 1 : 0);
            addLits(step.lits);
        }
    }
    uint64_t value() const { return h; }

  private:
    uint64_t h = 0xcbf29ce484222325ull;
};

std::string
hex(uint64_t x)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(x));
    return buf;
}

/** Append l to c unless c already mentions its variable. */
void
pushDistinct(std::vector<Lit> &c, Lit l)
{
    for (Lit e : c) {
        if (e.var() == l.var())
            return;
    }
    c.push_back(l);
}

/**
 * A literal over a variable below `range`, sign drawn first. Two
 * statements, so the draw order does not depend on the compiler's
 * argument evaluation order.
 */
Lit
randomLit(std::mt19937 &rng, int range)
{
    bool negated = rng() % 2 == 1;
    int var = static_cast<int>(rng() % static_cast<uint32_t>(range));
    return Lit(var, negated);
}

/**
 * A random Tseitin circuit (AND/OR/XOR gates over earlier signals —
 * the bit-blaster's shape, rich in BVE targets) plus random 3-4
 * literal side constraints, mostly over the inputs. Raw mt19937
 * draws only: the standard distributions are implementation-defined
 * and would make the digests compiler-dependent.
 */
Cnf
randomCircuitCnf(uint32_t seed, int inputs, int gates, int side)
{
    std::mt19937 rng(seed);
    Cnf cnf;
    cnf.numVars = inputs + gates;
    auto lit = [&](int v) { return Lit(v, rng() % 2 == 1); };
    for (int g = inputs; g < inputs + gates; g++) {
        Lit a = lit(static_cast<int>(rng() % g));
        Lit b = lit(static_cast<int>(rng() % g));
        if (a.var() == b.var())
            b = lit((a.var() + 1) % g);
        Lit y(g, false);
        switch (rng() % 3) {
          case 0: // y = a & b
            cnf.clauses.push_back({~y, a});
            cnf.clauses.push_back({~y, b});
            cnf.clauses.push_back({y, ~a, ~b});
            break;
          case 1: // y = a | b
            cnf.clauses.push_back({y, ~a});
            cnf.clauses.push_back({y, ~b});
            cnf.clauses.push_back({~y, a, b});
            break;
          default: // y = a ^ b
            cnf.clauses.push_back({~y, a, b});
            cnf.clauses.push_back({~y, ~a, ~b});
            cnf.clauses.push_back({y, ~a, b});
            cnf.clauses.push_back({y, a, ~b});
            break;
        }
    }
    for (int i = 0; i < side; i++) {
        std::vector<Lit> c;
        size_t width = 3 + (rng() % 8 == 0 ? 1 : 0);
        while (c.size() < width) {
            // Mostly over the inputs (random 3-SAT: the search-hard
            // part), sometimes over a gate output.
            int range = rng() % 4 == 0 ? cnf.numVars : inputs;
            pushDistinct(c, lit(static_cast<int>(rng() % range)));
        }
        cnf.clauses.push_back(c);
    }
    return cnf;
}

/** Solve a CNF in a fresh simplifying solver and fingerprint it. */
uint64_t
fingerprintOneShot(const Cnf &cnf, const Solver::Options &o)
{
    Solver s(o);
    DratProof proof;
    s.setProofSink(&proof);
    s.loadCnf(cnf);
    Result r = s.solve();
    Fingerprint fp;
    fp.addSolve(s, r);
    fp.addProof(proof);
    return fp.value();
}

/**
 * The CNF of a bit-blasted alu-machine query: the sketch evaluated
 * symbolically for three cycles over free holes, initial state and
 * inputs, asserting that every register and one register-file word
 * end up different from where they started.
 */
Cnf
aluMachineQueryCnf()
{
    owl::designs::CaseStudy cs = owl::designs::makeAluMachine();
    owl::smt::TermTable tt;
    owl::oyster::SymbolicEvaluator ev(cs.sketch, tt);
    for (const std::string &hole : cs.sketch.holeNames()) {
        ev.setHole(hole, tt.freshVar("hole_" + hole,
                                     cs.sketch.decl(hole).width));
    }
    owl::oyster::SymRun run = ev.run(3);
    Solver s;
    Cnf cnf;
    s.setCaptureCnf(&cnf);
    owl::smt::BitBlaster blaster(tt, s);
    for (const auto &[name, term] : run.states.back().regs)
        blaster.assertTrue(tt.mkNe(term, run.regAt(name, 0)));
    owl::smt::TermRef addr = tt.constant(2, 1);
    blaster.assertTrue(
        tt.mkNe(run.readMemAt(tt, "regfile", 3, addr),
                run.readMemAt(tt, "regfile", 0, addr)));
    s.setCaptureCnf(nullptr);
    return cnf;
}

} // namespace

TEST(Simp, GoldenFingerprints)
{
    // One-shot solves of random circuits across the SAT/UNSAT
    // boundary, with the default limits and with inprocessing and
    // database reduction forced often enough to run mid-search.
    const uint64_t kRandom[] = {
        0x03b6abd86593d227ull, 0x5f980419478585b0ull,
        0xcf65f66e4da6cafcull, 0x9c5db05ca489f9aaull,
        0xcf1065c40ef65c4dull, 0xb7a4eeae5bd290c9ull,
    };
    Solver::Options busy = simpOn();
    busy.simp.inprocessConflicts = 100;
    busy.restartBase = 50;
    busy.learnedLimitBase = 120;
    for (uint32_t i = 0; i < 6; i++) {
        Cnf cnf = randomCircuitCnf(0x51AE11 + i, 100, 240,
                                   400 + 30 * static_cast<int>(i));
        uint64_t got =
            fingerprintOneShot(cnf, i % 2 == 0 ? simpOn() : busy);
        EXPECT_EQ(hex(got), hex(kRandom[i])) << "random CNF " << i;
    }

    // An activation-literal session: guarded batches of clauses over
    // a frozen interface, each solved under a rotating subset of the
    // activations, so later rounds see new clauses, learned clauses,
    // reduced clauses and earlier eliminations.
    {
        Solver::Options o = busy;
        o.simp.minNewClauses = 24;
        Solver s(o);
        DratProof proof;
        s.setProofSink(&proof);
        Cnf base = randomCircuitCnf(0xAC7, 60, 160, 120);
        s.loadCnf(base);
        for (int v = 0; v < 60; v++)
            s.setFrozen(v);
        std::mt19937 rng(0xAC71);
        std::vector<int> acts;
        Fingerprint fp;
        for (int batch = 0; batch < 8; batch++) {
            int act = s.newVar();
            s.setFrozen(act);
            acts.push_back(act);
            for (int k = 0; k < 40; k++) {
                std::vector<Lit> c = {Lit(act, true)};
                while (c.size() < 4)
                    pushDistinct(c, randomLit(rng, 60));
                s.addClause(c);
            }
            std::vector<Lit> assumptions;
            for (size_t a = 0; a < acts.size(); a++) {
                if ((a + static_cast<size_t>(batch)) % 3 != 0)
                    assumptions.push_back(Lit(acts[a], false));
            }
            fp.addSolve(s, s.solve(assumptions));
        }
        fp.addProof(proof);
        EXPECT_EQ(hex(fp.value()), hex(0x8076394b01e87c95ull))
            << "activation-literal session";
    }

    // A real bit-blasted design query.
    {
        Cnf cnf = aluMachineQueryCnf();
        EXPECT_EQ(hex(fingerprintOneShot(cnf, simpOn())),
                  hex(0xa7b7b2fac6065f91ull))
            << "alu-machine query (" << cnf.numVars << " vars, "
            << cnf.clauses.size() << " clauses)";
    }
}

// ---------------------------------------------------------------------
// Live learned-clause accounting. liveLearnedCount() is maintained in
// O(1) and is what the incremental SMT layer reports as
// cegis.incremental.clauses_reused; liveLearnedClauses() recounts the
// database. They must agree after every step that deletes learned
// clauses: BVE, reduceDb, and incremental solves running both.
// ---------------------------------------------------------------------

TEST(Simp, LiveLearnedCountMatchesRecount)
{
    Solver::Options o = simpOn();
    o.learnedLimitBase = 40;
    o.simp.minNewClauses = 16;
    Solver s(o);
    constexpr int kInputs = 100;
    Cnf cnf = randomCircuitCnf(0x1EA7, kInputs, 240, 400);
    s.loadCnf(cnf);
    // Everything frozen for the first solve, so its learned clauses
    // mention gate outputs that a later round can eliminate.
    for (int v = 0; v < cnf.numVars; v++)
        s.setFrozen(v);
    auto same = [&](const std::string &step) {
        EXPECT_EQ(s.liveLearnedCount(), s.liveLearnedClauses())
            << "after " << step;
    };
    same("loading");

    ASSERT_EQ(s.solve(), Result::Sat);
    same("first solve");
    ASSERT_GT(s.stats().learnedDeleted, 0u) << "reduceDb never ran";

    // Release the gate outputs and fix one input to its model value:
    // the explicit round's cleanup touches the gates over that input
    // and elimination cascades from there, deleting learned clauses
    // that mention eliminated gates.
    for (int v = kInputs; v < cnf.numVars; v++)
        s.setFrozen(v, false);
    s.addClause(Lit(0, !s.modelValue(0)));
    uint64_t deleted = s.stats().learnedDeleted;
    uint64_t eliminated = s.simpStats().varsEliminated;
    ASSERT_TRUE(s.simplify());
    same("simplify");
    EXPECT_GT(s.simpStats().varsEliminated, eliminated);
    EXPECT_GT(s.stats().learnedDeleted, deleted)
        << "BVE deleted no learned clause";

    // Incremental solves over the (still frozen) inputs: new clauses
    // trigger solve-entry rounds, search triggers reductions.
    std::mt19937 rng(0x1EA8);
    for (int step = 0; step < 6; step++) {
        for (int k = 0; k < 20; k++) {
            std::vector<Lit> c;
            while (c.size() < 3)
                pushDistinct(c, randomLit(rng, kInputs));
            s.addClause(c);
        }
        s.solve({randomLit(rng, kInputs)});
        same("incremental solve " + std::to_string(step));
    }
}
