/**
 * @file
 * Tests for the SMT layer: hash-consing, the simplifier's rewrite
 * rules, concrete evaluation, bit-blasting (differential against
 * evalTerm on random assignments), checkSat models, Ackermann memory
 * congruence, and lookup tables.
 */

#include <gtest/gtest.h>

#include <random>

#include "smt/bitblast.h"
#include "smt/solver.h"
#include "smt/term.h"

using namespace owl;
using namespace owl::smt;

class SmtTest : public ::testing::Test
{
  protected:
    TermTable tt;
};

TEST_F(SmtTest, HashConsing)
{
    TermRef a = tt.freshVar("a", 8);
    TermRef b = tt.freshVar("b", 8);
    EXPECT_EQ(tt.mkAdd(a, b), tt.mkAdd(a, b));
    // Commutative canonicalization shares add(a,b) and add(b,a).
    EXPECT_EQ(tt.mkAdd(a, b), tt.mkAdd(b, a));
    EXPECT_NE(tt.mkAdd(a, b), tt.mkSub(a, b));
    EXPECT_EQ(tt.constant(8, 42), tt.constant(8, 42));
}

TEST_F(SmtTest, ConstantFolding)
{
    TermRef a = tt.constant(8, 7), b = tt.constant(8, 5);
    EXPECT_EQ(tt.mkAdd(a, b), tt.constant(8, 12));
    EXPECT_EQ(tt.mkMul(a, b), tt.constant(8, 35));
    EXPECT_EQ(tt.mkUlt(b, a), tt.trueTerm());
    EXPECT_EQ(tt.mkEq(a, b), tt.falseTerm());
    EXPECT_EQ(tt.mkConcat(a, b), tt.constant(16, 0x0705));
    EXPECT_EQ(tt.mkExtract(tt.constant(8, 0xa5), 7, 4),
              tt.constant(4, 0xa));
}

TEST_F(SmtTest, IdentityRewrites)
{
    TermRef a = tt.freshVar("a", 8);
    TermRef zero = tt.constant(8, 0);
    TermRef ones = tt.constant(BitVec::ones(8));
    EXPECT_EQ(tt.mkAdd(a, zero), a);
    EXPECT_EQ(tt.mkAnd(a, ones), a);
    EXPECT_EQ(tt.mkAnd(a, zero), zero);
    EXPECT_EQ(tt.mkOr(a, zero), a);
    EXPECT_EQ(tt.mkOr(a, ones), ones);
    EXPECT_EQ(tt.mkXor(a, zero), a);
    EXPECT_EQ(tt.mkXor(a, a), zero);
    EXPECT_EQ(tt.mkNot(tt.mkNot(a)), a);
    EXPECT_EQ(tt.mkEq(a, a), tt.trueTerm());
    EXPECT_EQ(tt.mkSub(a, a), zero);
}

TEST_F(SmtTest, IteRewrites)
{
    TermRef c = tt.freshVar("c", 1);
    TermRef a = tt.freshVar("a", 8);
    TermRef b = tt.freshVar("b", 8);
    EXPECT_EQ(tt.mkIte(tt.trueTerm(), a, b), a);
    EXPECT_EQ(tt.mkIte(tt.falseTerm(), a, b), b);
    EXPECT_EQ(tt.mkIte(c, a, a), a);
    // 1-bit: ite(c,1,0) == c ; ite(c,0,1) == !c.
    EXPECT_EQ(tt.mkIte(c, tt.trueTerm(), tt.falseTerm()), c);
    EXPECT_EQ(tt.mkIte(c, tt.falseTerm(), tt.trueTerm()), tt.mkNot(c));
    // ite(!c, a, b) == ite(c, b, a).
    EXPECT_EQ(tt.mkIte(tt.mkNot(c), a, b), tt.mkIte(c, b, a));
}

TEST_F(SmtTest, EqOfIteWithConstants)
{
    TermRef c = tt.freshVar("c", 1);
    TermRef ite = tt.mkIte(c, tt.constant(8, 3), tt.constant(8, 7));
    EXPECT_EQ(tt.mkEq(ite, tt.constant(8, 3)), c);
    EXPECT_EQ(tt.mkEq(ite, tt.constant(8, 7)), tt.mkNot(c));
    EXPECT_EQ(tt.mkEq(ite, tt.constant(8, 9)), tt.falseTerm());
}

TEST_F(SmtTest, ExtractThroughConcatAndZext)
{
    TermRef a = tt.freshVar("a", 8);
    TermRef b = tt.freshVar("b", 8);
    TermRef cc = tt.mkConcat(a, b);
    EXPECT_EQ(tt.mkExtract(cc, 7, 0), b);
    EXPECT_EQ(tt.mkExtract(cc, 15, 8), a);
    TermRef z = tt.mkZExt(a, 32);
    EXPECT_EQ(tt.mkExtract(z, 7, 0), a);
    EXPECT_EQ(tt.mkExtract(z, 31, 8), tt.constant(24, 0));
    TermRef w = tt.freshVar("w", 32);
    EXPECT_EQ(tt.mkExtract(tt.mkExtract(w, 23, 8), 7, 0),
              tt.mkExtract(w, 15, 8));
}

TEST_F(SmtTest, EvalTermBasics)
{
    TermRef a = tt.freshVar("a", 16);
    TermRef b = tt.freshVar("b", 16);
    TermRef e = tt.mkAdd(tt.mkMul(a, b), tt.constant(16, 1));
    Assignment asg;
    asg.setVar(0, BitVec(16, 300));
    asg.setVar(1, BitVec(16, 7));
    EXPECT_EQ(evalTerm(tt, e, asg).toUint64(), (300u * 7 + 1) & 0xffff);
}

TEST_F(SmtTest, LookupTables)
{
    std::vector<BitVec> entries;
    for (int i = 0; i < 16; i++)
        entries.push_back(BitVec(8, (i * 17 + 3) & 0xff));
    int tid = tt.registerTable("t", 8, entries);
    // Same contents re-register to the same id (sharing).
    EXPECT_EQ(tt.registerTable("t2", 8, entries), tid);
    // Constant index folds.
    EXPECT_EQ(tt.lookup(tid, tt.constant(4, 5)), tt.constant(8, 88));
    // Symbolic index evaluates correctly.
    TermRef idx = tt.freshVar("i", 4);
    TermRef lk = tt.lookup(tid, idx);
    Assignment asg;
    asg.setVar(0, BitVec(4, 9));
    EXPECT_EQ(evalTerm(tt, lk, asg).toUint64(), (9u * 17 + 3) & 0xff);
}

TEST_F(SmtTest, CheckSatSimple)
{
    TermRef a = tt.freshVar("a", 8);
    TermRef eq = tt.mkEq(tt.mkAdd(a, tt.constant(8, 1)),
                         tt.constant(8, 0));
    Model m;
    ASSERT_EQ(checkSat(tt, {eq}, &m), CheckResult::Sat);
    EXPECT_EQ(m.varValue(tt, 0).toUint64(), 0xffu);
}

TEST_F(SmtTest, CheckSatUnsat)
{
    TermRef a = tt.freshVar("a", 8);
    TermRef c1 = tt.mkUlt(a, tt.constant(8, 3));
    TermRef c2 = tt.mkUlt(tt.constant(8, 5), a);
    EXPECT_EQ(checkSat(tt, {c1, c2}), CheckResult::Unsat);
}

TEST_F(SmtTest, AckermannCongruence)
{
    // Two reads of the same memory at equal addresses must agree:
    // read(m, x) != read(m, y) && x == y is UNSAT.
    TermRef x = tt.freshVar("x", 8);
    TermRef y = tt.freshVar("y", 8);
    TermRef r1 = tt.baseRead(0, x, 32);
    TermRef r2 = tt.baseRead(0, y, 32);
    TermRef neq = tt.mkNot(tt.mkEq(r1, r2));
    TermRef addr_eq = tt.mkEq(x, y);
    EXPECT_EQ(checkSat(tt, {neq, addr_eq}), CheckResult::Unsat);
    // Without the address equality it is satisfiable.
    EXPECT_EQ(checkSat(tt, {neq}), CheckResult::Sat);
    // Different memories are unrelated even at equal addresses.
    TermRef r3 = tt.baseRead(1, x, 32);
    TermRef neq13 = tt.mkNot(tt.mkEq(r1, r3));
    EXPECT_EQ(checkSat(tt, {neq13, addr_eq}), CheckResult::Sat);
}

namespace
{

/** Build a random term over the given leaves; depth-bounded. */
TermRef
randomTerm(TermTable &tt, std::mt19937 &rng,
           const std::vector<TermRef> &leaves, int depth)
{
    if (depth == 0 || rng() % 4 == 0) {
        if (rng() % 4 == 0) {
            int w = tt.width(leaves[0]);
            return tt.constant(BitVec(w, rng()));
        }
        return leaves[rng() % leaves.size()];
    }
    TermRef a = randomTerm(tt, rng, leaves, depth - 1);
    TermRef b = randomTerm(tt, rng, leaves, depth - 1);
    switch (rng() % 12) {
      case 0: return tt.mkAdd(a, b);
      case 1: return tt.mkSub(a, b);
      case 2: return tt.mkAnd(a, b);
      case 3: return tt.mkOr(a, b);
      case 4: return tt.mkXor(a, b);
      case 5: return tt.mkNot(a);
      case 6: return tt.mkNeg(a);
      case 7: return tt.mkMul(a, b);
      case 8: return tt.mkIte(tt.mkUlt(a, b), a, b);
      case 9: return tt.mkShl(a, b);
      case 10: return tt.mkLshr(a, b);
      default: return tt.mkAshr(a, b);
    }
}

} // namespace

class SmtBlastDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(SmtBlastDifferential, BlasterAgreesWithEvalTerm)
{
    // Property: for random terms t and random concrete leaf values,
    // the formula t == eval(t) must be SAT under pinned leaves, and
    // t != eval(t) must be UNSAT. This exercises every encoder path
    // against the independent concrete evaluator.
    std::mt19937 rng(GetParam());
    for (int round = 0; round < 12; round++) {
        TermTable tt;
        int w = 1 + rng() % 16;
        TermRef a = tt.freshVar("a", w);
        TermRef b = tt.freshVar("b", w);
        TermRef t = randomTerm(tt, rng, {a, b}, 4);

        BitVec av(w, rng()), bv(w, rng());
        Assignment asg;
        asg.setVar(0, av);
        asg.setVar(1, bv);
        BitVec expect = evalTerm(tt, t, asg);

        TermRef pin_a = tt.mkEq(a, tt.constant(av));
        TermRef pin_b = tt.mkEq(b, tt.constant(bv));
        TermRef match = tt.mkEq(t, tt.constant(expect));
        EXPECT_EQ(checkSat(tt, {pin_a, pin_b, match}), CheckResult::Sat);
        EXPECT_EQ(checkSat(tt, {pin_a, pin_b, tt.mkNot(match)}),
                  CheckResult::Unsat);

        // A DAG that uses one subterm under both polarities, so the
        // gate table serves the same gates to both edges.
        TermRef sub = randomTerm(tt, rng, {a, b}, 3);
        TermRef shared =
            randomTerm(tt, rng, {a, b, sub, tt.mkNot(sub)}, 4);
        TermRef both = tt.mkXor(shared, tt.mkAnd(sub, tt.mkNot(shared)));
        for (TermRef u : {shared, both}) {
            TermRef m = tt.mkEq(u, tt.constant(evalTerm(tt, u, asg)));
            EXPECT_EQ(checkSat(tt, {pin_a, pin_b, m}), CheckResult::Sat);
            EXPECT_EQ(checkSat(tt, {pin_a, pin_b, tt.mkNot(m)}),
                      CheckResult::Unsat);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtBlastDifferential,
                         ::testing::Range(100, 112));

TEST_F(SmtTest, StrashSharesOneAndGate)
{
    TermRef a = tt.freshVar("a", 1);
    TermRef b = tt.freshVar("b", 1);
    sat::Solver solver;
    BitBlaster bb(tt, solver);
    sat::Lit l = bb.blast(tt.mkAnd(a, b))[0];
    int vars = solver.numVars();
    EXPECT_EQ(bb.blast(tt.mkAnd(b, a))[0], l);
    EXPECT_EQ(bb.blast(tt.mkNot(tt.mkOr(tt.mkNot(a), tt.mkNot(b))))[0], l);
    // Reaches gAnd with its inputs the other way round.
    EXPECT_EQ(bb.blast(tt.mkIte(b, a, tt.falseTerm()))[0], l);
    EXPECT_EQ(solver.numVars(), vars);
    EXPECT_EQ(bb.stats().gates, 1u);
}

TEST_F(SmtTest, StrashSharesXorUnderComplementedInputs)
{
    TermRef a = tt.freshVar("a", 4);
    TermRef b = tt.freshVar("b", 4);
    sat::Solver solver;
    BitBlaster bb(tt, solver);
    // blast() returns a span into the blaster's pool; copy each
    // encoding before the next blast can move the pool.
    auto blastCopy = [&](TermRef t) {
        std::span<const sat::Lit> enc = bb.blast(t);
        return std::vector<sat::Lit>(enc.begin(), enc.end());
    };
    std::vector<sat::Lit> x = blastCopy(tt.mkXor(a, b));
    int vars = solver.numVars();
    std::vector<sat::Lit> na = blastCopy(tt.mkXor(tt.mkNot(a), b));
    std::vector<sat::Lit> nb = blastCopy(tt.mkXor(a, tt.mkNot(b)));
    std::vector<sat::Lit> nn =
        blastCopy(tt.mkXor(tt.mkNot(a), tt.mkNot(b)));
    for (int i = 0; i < 4; i++) {
        EXPECT_EQ(na[i], ~x[i]) << i;
        EXPECT_EQ(nb[i], ~x[i]) << i;
        EXPECT_EQ(nn[i], x[i]) << i;
    }
    EXPECT_EQ(solver.numVars(), vars);
    EXPECT_EQ(bb.stats().gates, 4u);
}

TEST_F(SmtTest, NativeMuxTruthTable)
{
    sat::Solver solver;
    sat::Cnf cnf;
    solver.setCaptureCnf(&cnf);
    BitBlaster bb(tt, solver);
    sat::Lit c(solver.newVar(), false), t(solver.newVar(), false),
        e(solver.newVar(), false);
    size_t clauses = cnf.clauses.size();
    sat::Lit m = bb.gMux(c, t, e);
    EXPECT_EQ(solver.numVars(), m.var() + 1);
    EXPECT_EQ(cnf.clauses.size(), clauses + 6);
    // Normalised forms of the same mux reuse its gate.
    EXPECT_EQ(bb.gMux(~c, e, t), m);
    EXPECT_EQ(bb.gMux(c, ~t, ~e), ~m);
    EXPECT_EQ(bb.stats().gates, 1u);

    // Each mux, degenerate forms included, against c ? t : e on all
    // eight rows: the row forces the output, and the opposite output
    // is refuted.
    sat::Lit one = bb.trueLit();
    struct Case
    {
        sat::Lit t, e;
    };
    const Case cases[] = {{t, e}, {~t, e},  {t, ~t}, {one, e}, {~one, e},
                          {t, one}, {t, ~one}, {c, e},  {~c, e},  {t, c},
                          {t, ~c}};
    for (const Case &k : cases) {
        sat::Lit out = bb.gMux(c, k.t, k.e);
        for (int row = 0; row < 8; row++) {
            std::vector<sat::Lit> pin = {c, t, e};
            for (int i = 0; i < 3; i++) {
                if (!(row >> i & 1))
                    pin[i] = ~pin[i];
            }
            auto value = [&](sat::Lit l) {
                if (l.var() == one.var())
                    return !l.negated();
                int i = l.var() - c.var();
                return bool(row >> i & 1) != l.negated();
            };
            bool want = value(c) ? value(k.t) : value(k.e);
            pin.push_back(want ? out : ~out);
            EXPECT_EQ(solver.solve(pin), sat::Result::Sat) << row;
            pin.back() = ~pin.back();
            EXPECT_EQ(solver.solve(pin), sat::Result::Unsat) << row;
        }
    }
}

TEST_F(SmtTest, BlastWideOps)
{
    // 128-bit xor/add/extract used by the AES path.
    TermRef a = tt.freshVar("a", 128);
    BitVec av = BitVec::fromHex(128, "000102030405060708090a0b0c0d0e0f");
    BitVec k = BitVec::fromHex(128, "2b7e151628aed2a6abf7158809cf4f3c");
    TermRef x = tt.mkXor(a, tt.constant(k));
    TermRef pin = tt.mkEq(a, tt.constant(av));
    TermRef m = tt.mkEq(x, tt.constant(av ^ k));
    EXPECT_EQ(checkSat(tt, {pin, m}), CheckResult::Sat);
    EXPECT_EQ(checkSat(tt, {pin, tt.mkNot(m)}), CheckResult::Unsat);
}

TEST_F(SmtTest, SolveForLookupIndex)
{
    // The solver can invert a table: find i with sbox-like t[i] == v.
    std::vector<BitVec> entries;
    for (int i = 0; i < 256; i++)
        entries.push_back(BitVec(8, (i * 31 + 7) & 0xff));
    int tid = tt.registerTable("rom", 8, entries);
    TermRef idx = tt.freshVar("i", 8);
    TermRef want = tt.constant(8, entries[99].toUint64());
    Model m;
    ASSERT_EQ(checkSat(tt, {tt.mkEq(tt.lookup(tid, idx), want)}, &m),
              CheckResult::Sat);
    uint64_t i = m.varValue(tt, 0).toUint64();
    EXPECT_EQ(entries[i].toUint64(), entries[99].toUint64());
}

TEST_F(SmtTest, RotateBuilders)
{
    TermRef a = tt.freshVar("a", 32);
    TermRef amt = tt.freshVar("s", 32);
    TermRef rot = tt.mkRol(a, amt);
    Assignment asg;
    asg.setVar(0, BitVec(32, 0x80000001u));
    asg.setVar(1, BitVec(32, 4));
    EXPECT_EQ(evalTerm(tt, rot, asg).toUint64(),
              BitVec(32, 0x80000001u).rol(4).toUint64());
    TermRef ror = tt.mkRor(a, amt);
    EXPECT_EQ(evalTerm(tt, ror, asg).toUint64(),
              BitVec(32, 0x80000001u).ror(4).toUint64());
}

TEST_F(SmtTest, UnknownOnConflictLimit)
{
    // A multiplication inversion is hard enough to exceed 1 conflict.
    TermRef a = tt.freshVar("a", 24);
    TermRef b = tt.freshVar("b", 24);
    TermRef prod = tt.mkMul(a, b);
    std::vector<TermRef> as = {
        tt.mkEq(prod, tt.constant(24, 0x7fffff)),
        tt.mkNe(a, tt.constant(24, 1)),
        tt.mkNe(b, tt.constant(24, 1)),
    };
    SolveLimits lim;
    lim.conflictLimit = 1;
    CheckResult r = checkSat(tt, as, nullptr, lim);
    EXPECT_NE(r, CheckResult::Sat);
}
