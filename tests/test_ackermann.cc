/**
 * @file
 * Tests for lazy Ackermann lemmas-on-demand (smt/ackermann.h,
 * DESIGN.md §14): randomized differential lazy-vs-eager on one-shot
 * queries (verdicts match, Sat models are congruence-clean, Unsat
 * verdicts replay under DRAT), lemma accounting in CheckStats and
 * IncrementalStats, lemmas asserted after BVE has already simplified
 * the solver, lemma permanence across incremental checks, and
 * synthesis-level hole bit-identity across all four mode corners
 * (lazy/eager x fresh/incremental), and lazy vs eager on the other
 * memory-bearing registry designs.
 */

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>

#include "core/synthesis.h"
#include "designs/alu_machine.h"
#include "designs/case_study.h"
#include "designs/registry.h"
#include "obs/obs.h"
#include "smt/incremental.h"
#include "smt/solver.h"
#include "smt/term.h"

using namespace owl;
using namespace owl::smt;
using owl::synth::SynthesisOptions;
using owl::synth::SynthesisResult;
using owl::synth::SynthStatus;

namespace
{

/**
 * Check that a Sat model respects read congruence: for every
 * same-memory pair of reads whose addresses evaluate equal under the
 * model's variable assignment, the read values in the model agree.
 * This is the property the lazy refinement loop promises of any model
 * it lets escape.
 */
void
expectCongruenceClean(const TermTable &tt, const Model &model,
                      const std::vector<TermRef> &reads)
{
    Assignment asg;
    for (const auto &[idx, val] : model.leafValues) {
        const Node &n = tt.node(TermRef{idx});
        if (n.op == Op::Var)
            asg.setVar(n.a, val);
    }
    // Only reads that reached the formula appear in the model; a read
    // no assertion mentions was never the solver's to constrain.
    std::vector<TermRef> present;
    for (TermRef r : reads)
        if (model.leafValues.count(r.idx))
            present.push_back(r);
    for (size_t i = 0; i < present.size(); i++) {
        for (size_t j = i + 1; j < present.size(); j++) {
            const Node &ni = tt.node(present[i]);
            const Node &nj = tt.node(present[j]);
            if (ni.a != nj.a)
                continue; // different memories
            BitVec ai = evalTerm(tt, ni.children[0], asg);
            BitVec aj = evalTerm(tt, nj.children[0], asg);
            if (!(ai == aj))
                continue;
            EXPECT_TRUE(model.leafValues.at(present[i].idx) ==
                        model.leafValues.at(present[j].idx))
                << "reads " << i << " and " << j
                << " disagree at equal address";
        }
    }
}

/** Per-instruction hole values must match between two synthesis runs. */
void
expectSameHoles(const SynthesisResult &a, const SynthesisResult &b,
                const std::string &what)
{
    ASSERT_EQ(a.perInstr.size(), b.perInstr.size()) << what;
    for (size_t i = 0; i < a.perInstr.size(); i++) {
        const auto &[instr, holes] = a.perInstr[i];
        const auto &[binstr, bholes] = b.perInstr[i];
        ASSERT_EQ(instr, binstr) << what;
        ASSERT_EQ(holes.size(), bholes.size()) << what << " " << instr;
        for (const auto &[hole, v] : holes)
            EXPECT_TRUE(v == bholes.at(hole))
                << what << " " << instr << "." << hole;
    }
}

} // namespace

TEST(Ackermann, LazyRefinesForcedViolation)
{
    // x == y forces read(m,x) == read(m,y); asserting the reads
    // unequal is Unsat, but only via a congruence instance the lazy
    // path must discover from a model scan.
    TermTable tt;
    TermRef x = tt.freshVar("x", 8);
    TermRef y = tt.freshVar("y", 8);
    TermRef r1 = tt.baseRead(0, x, 16);
    TermRef r2 = tt.baseRead(0, y, 16);
    std::vector<TermRef> q = {tt.mkEq(x, y),
                              tt.mkNot(tt.mkEq(r1, r2))};

    SolveLimits lazy;
    lazy.solver.checkProofs = true; // the refinement Unsat must replay
    CheckStats ls;
    EXPECT_EQ(checkSat(tt, q, nullptr, lazy, &ls), CheckResult::Unsat);
    EXPECT_GE(ls.ackermannLemmas, 1u);
    EXPECT_GE(ls.ackermannRounds, 1u);
    EXPECT_EQ(ls.ackermannConstraints, ls.ackermannLemmas);
    EXPECT_TRUE(ls.proofChecked);

    SolveLimits eager;
    eager.solver.eagerAckermann = true;
    eager.solver.checkProofs = true;
    CheckStats es;
    EXPECT_EQ(checkSat(tt, q, nullptr, eager, &es),
              CheckResult::Unsat);
    EXPECT_EQ(es.ackermannLemmas, 0u);
    EXPECT_EQ(es.ackermannRounds, 0u);
    EXPECT_GE(es.ackermannConstraints, 1u);
    EXPECT_TRUE(es.proofChecked);
}

TEST(Ackermann, LemmaAfterEliminationUsesFrozenBits)
{
    // Lemmas go into the live solver after its first solve, so they
    // meet a database BVE has already simplified. The addresses here
    // are ites over arithmetic: BVE eliminates most of their cone
    // before the first Sat model, and only the address and read bits
    // checkSat froze survive for the lemma. Under x == y both
    // addresses agree for either c, so the unequal reads need a
    // congruence lemma to refute.
    TermTable tt;
    TermRef x = tt.freshVar("x", 8);
    TermRef y = tt.freshVar("y", 8);
    TermRef c = tt.freshVar("c", 1);
    TermRef one = tt.constant(8, 1);
    TermRef a1 = tt.mkIte(c, tt.mkMul(x, tt.constant(8, 3)),
                          tt.mkAdd(x, x));
    TermRef a2 = tt.mkIte(c, tt.mkAdd(y, tt.mkShl(y, one)),
                          tt.mkShl(y, one));
    TermRef r1 = tt.baseRead(0, a1, 16);
    TermRef r2 = tt.baseRead(0, a2, 16);

    obs::setEnabled(true);
    obs::Registry &reg = obs::Registry::instance();
    uint64_t elim0 = reg.counterValue("sat.preprocess.vars_eliminated");
    uint64_t rounds0 = reg.counterValue("sat.preprocess.rounds");
    SolveLimits lims;
    lims.solver.checkProofs = true;
    CheckStats st;
    EXPECT_EQ(checkSat(tt, {tt.mkEq(x, y), tt.mkNe(r1, r2)}, nullptr,
                       lims, &st),
              CheckResult::Unsat);
    EXPECT_TRUE(st.proofChecked);
    EXPECT_GE(st.ackermannRounds, 1u);
    if (obs::enabled()) {
        // One simplification round, the one at the first solve's
        // entry, did all the eliminating: the lemma round came after.
        EXPECT_GT(reg.counterValue("sat.preprocess.vars_eliminated"),
                  elim0);
        EXPECT_EQ(reg.counterValue("sat.preprocess.rounds"), rounds0 + 1);
    }

    // A sibling that is Sat: the addresses may now differ, and the
    // model lazy mode hands back must be congruence-clean.
    Model model;
    ASSERT_EQ(checkSat(tt, {tt.mkNe(r1, r2), tt.mkEq(c, tt.constant(1, 1))},
                       &model),
              CheckResult::Sat);
    expectCongruenceClean(tt, model, {r1, r2});
}

TEST(Ackermann, SatModelsAreCongruenceClean)
{
    // Unconstrained same-memory reads at free addresses: Sat either
    // way, and the lazy model must not leave a violated pair behind.
    TermTable tt;
    TermRef x = tt.freshVar("x", 4);
    TermRef y = tt.freshVar("y", 4);
    std::vector<TermRef> reads = {tt.baseRead(0, x, 8),
                                  tt.baseRead(0, y, 8),
                                  tt.baseRead(0, tt.mkAdd(x, y), 8)};
    // Force the first two reads apart so the scan has something to
    // separate (the solver must move the addresses apart instead).
    std::vector<TermRef> q = {
        tt.mkNot(tt.mkEq(reads[0], reads[1])),
        tt.mkEq(reads[2], tt.constant(8, 7)),
    };
    Model model;
    ASSERT_EQ(checkSat(tt, q, &model), CheckResult::Sat);
    expectCongruenceClean(tt, model, reads);
}

TEST(Ackermann, RandomizedLazyMatchesEager)
{
    std::mt19937 rng(20240810);
    int sat_seen = 0, unsat_seen = 0, lemma_rounds_seen = 0;
    for (int iter = 0; iter < 40; iter++) {
        TermTable tt;
        TermRef a = tt.freshVar("a", 4);
        TermRef b = tt.freshVar("b", 4);
        TermRef c = tt.freshVar("c", 4);
        std::vector<TermRef> vars = {a, b, c};
        // Reads over two memories at overlapping symbolic addresses:
        // plenty of same-memory pairs for the scan to consider.
        std::vector<TermRef> addrs = {a, b, c, tt.mkAdd(a, b),
                                      tt.mkXor(b, c),
                                      tt.constant(4, rng() % 16)};
        std::vector<TermRef> reads;
        for (int mem = 0; mem < 2; mem++)
            for (size_t k = 0; k < addrs.size(); k += 1 + rng() % 2)
                reads.push_back(tt.baseRead(mem, addrs[k], 8));
        std::vector<TermRef> q;
        size_t n_constraints = 2 + rng() % 4;
        for (size_t k = 0; k < n_constraints; k++) {
            TermRef r1 = reads[rng() % reads.size()];
            TermRef r2 = reads[rng() % reads.size()];
            switch (rng() % 4) {
              case 0:
                q.push_back(tt.mkEq(tt.mkXor(r1, r2),
                                    tt.constant(8, rng() % 256)));
                break;
              case 1:
                q.push_back(tt.mkNot(tt.mkEq(r1, r2)));
                break;
              case 2:
                q.push_back(tt.mkEq(vars[rng() % 3],
                                    vars[rng() % 3]));
                break;
              default:
                q.push_back(tt.mkUlt(r1, tt.constant(8, 1 + rng() % 255)));
                break;
            }
        }

        SolveLimits lazy;
        lazy.solver.checkProofs = true;
        SolveLimits eager;
        eager.solver.eagerAckermann = true;
        eager.solver.checkProofs = true;
        Model lm, em;
        CheckStats ls, es;
        CheckResult lr = checkSat(tt, q, &lm, lazy, &ls);
        CheckResult er = checkSat(tt, q, &em, eager, &es);
        ASSERT_EQ(lr, er) << "iter " << iter;
        if (lr == CheckResult::Sat) {
            sat_seen++;
            expectCongruenceClean(tt, lm, reads);
        } else {
            unsat_seen++;
            // A query the simplifier folds to constant false carries
            // no proof obligation (verdict by evaluation, not search).
            bool trivial = false;
            for (TermRef t : q)
                trivial = trivial || tt.isFalse(t);
            if (!trivial) {
                EXPECT_TRUE(ls.proofChecked) << "iter " << iter;
            }
        }
        lemma_rounds_seen += ls.ackermannRounds > 0;
        // Lazy never instantiates more than eager's full pair set.
        EXPECT_LE(ls.ackermannConstraints, es.ackermannConstraints)
            << "iter " << iter;
    }
    // The generator must actually exercise both verdicts and the
    // refinement loop, or the differential is vacuous.
    EXPECT_GT(sat_seen, 0);
    EXPECT_GT(unsat_seen, 0);
    EXPECT_GT(lemma_rounds_seen, 0);
}

TEST(Ackermann, IncrementalLemmasArePermanent)
{
    TermTable tt;
    TermRef x = tt.freshVar("x", 8);
    TermRef y = tt.freshVar("y", 8);
    TermRef r1 = tt.baseRead(0, x, 16);
    TermRef r2 = tt.baseRead(0, y, 16);
    IncrementalContext ctx(tt);
    ctx.assertPermanent(tt.mkEq(x, y));
    ctx.assertPermanent(tt.mkNot(tt.mkEq(r1, r2)));
    // The contradiction is only reachable through a congruence
    // instance; the lazy incremental path must refine to Unsat, and
    // unconditionally (no activation literal involved).
    ASSERT_EQ(ctx.check(), CheckResult::Unsat);
    EXPECT_FALSE(ctx.lastUnsatWasConditional());
    EXPECT_GE(ctx.stats().ackermannLemmas, 1u);
    uint64_t lemmas_after_first = ctx.stats().ackermannLemmas;
    // Lemmas are permanent session facts: re-checking needs no new
    // instantiation and stays Unsat.
    ASSERT_EQ(ctx.check(), CheckResult::Unsat);
    EXPECT_EQ(ctx.stats().ackermannLemmas, lemmas_after_first);
}

TEST(Ackermann, IncrementalEagerNeedsNoRefinement)
{
    // The session's policy selects the Ackermann mode: eager pairs the
    // reads as they are registered, so the same contradiction is
    // refuted with no model scan and no lemma.
    TermTable tt;
    TermRef x = tt.freshVar("x", 8);
    TermRef y = tt.freshVar("y", 8);
    TermRef r1 = tt.baseRead(0, x, 16);
    TermRef r2 = tt.baseRead(0, y, 16);
    SolverPolicy eager;
    eager.eagerAckermann = true;
    IncrementalContext ctx(tt, eager);
    ctx.assertPermanent(tt.mkEq(x, y));
    ctx.assertPermanent(tt.mkNot(tt.mkEq(r1, r2)));
    EXPECT_GE(ctx.stats().ackermannConstraints, 1u);
    ASSERT_EQ(ctx.check(), CheckResult::Unsat);
    EXPECT_FALSE(ctx.lastUnsatWasConditional());
    EXPECT_EQ(ctx.stats().ackermannScans, 0u);
    EXPECT_EQ(ctx.stats().ackermannLemmas, 0u);
}

TEST(Ackermann, IncrementalLemmasSurviveGroupRetraction)
{
    // A lemma learned while a group was active must keep holding
    // after that group stops being assumed: lemmas are facts about
    // the memory semantics, not about any particular group.
    TermTable tt;
    TermRef x = tt.freshVar("x", 8);
    TermRef y = tt.freshVar("y", 8);
    TermRef r1 = tt.baseRead(0, x, 16);
    TermRef r2 = tt.baseRead(0, y, 16);
    IncrementalContext ctx(tt);
    ctx.assertPermanent(tt.mkNot(tt.mkEq(r1, r2)));
    ASSERT_EQ(ctx.check(), CheckResult::Sat);
    ctx.addGroup({tt.mkEq(x, y)});
    ASSERT_EQ(ctx.check(), CheckResult::Unsat);
    uint64_t lemmas = ctx.stats().ackermannLemmas;
    EXPECT_GE(lemmas, 1u);
    // With a fresh contradiction-free group set the context must
    // still respect the learned congruences: x != y makes the query
    // satisfiable again, and the Sat model is congruence-clean.
    ctx.addGroup({tt.mkNot(tt.mkEq(x, y))});
    Model model;
    CheckResult r = ctx.check(&model);
    if (r == CheckResult::Sat)
        expectCongruenceClean(tt, model, {r1, r2});
    EXPECT_EQ(ctx.stats().ackermannLemmas, lemmas);
}

TEST(Ackermann, IncrementalProofReplayOnRefinementUnsat)
{
    TermTable tt;
    TermRef x = tt.freshVar("x", 6);
    TermRef y = tt.freshVar("y", 6);
    TermRef r1 = tt.baseRead(0, x, 12);
    TermRef r2 = tt.baseRead(0, y, 12);
    SolverPolicy o;
    o.checkProofs = true;
    IncrementalContext ctx(tt, o);
    ctx.assertPermanent(tt.mkEq(x, y));
    ASSERT_EQ(ctx.check(), CheckResult::Sat);
    // Spread across two permanents and two solves; a failed DRAT
    // replay panics inside check().
    ctx.assertPermanent(tt.mkNot(tt.mkEq(r1, r2)));
    CheckStats stats;
    ASSERT_EQ(ctx.check(nullptr, {}, &stats), CheckResult::Unsat);
    EXPECT_FALSE(stats.unsatConditional);
}

TEST(Ackermann, SynthesisHolesBitIdenticalAcrossModes)
{
    // The acceptance gate in miniature on a memory-bearing design:
    // lazy/eager x fresh/incremental must all land on the same hole
    // values (every mode converges to the lexmin model of the same
    // final feasible set; the counterexample trajectory may differ).
    struct ModeResult
    {
        const char *name;
        SynthesisResult r;
    };
    std::vector<ModeResult> runs;
    for (bool eager : {false, true}) {
        for (bool incremental : {true, false}) {
            designs::CaseStudy cs = designs::makeAluMachine();
            SynthesisOptions o;
            o.solver.eagerAckermann = eager;
            o.incremental = incremental;
            SynthesisResult r =
                synthesizeControl(cs.sketch, cs.spec, cs.alpha, o);
            ASSERT_EQ(r.status, SynthStatus::Ok)
                << (eager ? "eager" : "lazy") << "/"
                << (incremental ? "incremental" : "fresh") << ": "
                << r.failedInstr;
            runs.push_back({eager ? "eager" : "lazy", std::move(r)});
        }
    }
    for (size_t m = 1; m < runs.size(); m++)
        expectSameHoles(runs[0].r, runs[m].r,
                        "alu-machine mode " + std::to_string(m));

    // The other memory-bearing registry designs, lazy vs eager. Lazy
    // refinement must also pay for itself there: it asserts strictly
    // fewer congruences than the eager pair set.
    obs::setEnabled(true);
    obs::Registry &reg = obs::Registry::instance();
    for (const char *name : {"rv32i", "rv32i-2stage", "crypto-core"}) {
        SynthesisResult r[2];
        uint64_t congruences[2];
        for (bool eager : {false, true}) {
            std::optional<designs::CaseStudy> cs =
                designs::makeCaseStudy(name);
            ASSERT_TRUE(cs) << name;
            SynthesisOptions o;
            o.solver.eagerAckermann = eager;
            uint64_t before = reg.counterValue("smt.ackermann_constraints");
            r[eager] = synthesizeControl(cs->sketch, cs->spec, cs->alpha, o);
            congruences[eager] =
                reg.counterValue("smt.ackermann_constraints") - before;
            ASSERT_EQ(r[eager].status, SynthStatus::Ok)
                << name << (eager ? " eager: " : " lazy: ")
                << r[eager].failedInstr;
        }
        expectSameHoles(r[0], r[1], std::string(name) + " lazy/eager");
        if (obs::enabled()) {
            EXPECT_LT(congruences[0], congruences[1]) << name;
        }
    }
}
