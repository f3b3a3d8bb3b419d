/**
 * @file
 * Tests for owl::smt::IncrementalContext (persistent bit-blast cache,
 * activation-literal groups, assumption probing, session proofs)
 * and for the incremental CEGIS path built on it: bit-identical hole
 * values against the fresh per-iteration path and the path without
 * CNF preprocessing on five registry designs, model-guided lexmin
 * canonicalization against a full-probe reference, and back-to-back
 * in-process synthesis sessions (the ASan double-session check).
 */

#include <gtest/gtest.h>

#include <optional>

#include "core/cegis.h"
#include "core/spec_compiler.h"
#include "core/synthesis.h"
#include "designs/accumulator.h"
#include "designs/case_study.h"
#include "designs/registry.h"
#include "obs/obs.h"
#include "smt/incremental.h"
#include "smt/term.h"

using namespace owl;
using namespace owl::smt;
using owl::synth::SynthesisOptions;
using owl::synth::SynthesisResult;
using owl::synth::SynthStatus;

TEST(Incremental, PermanentAssertionsAndModel)
{
    TermTable tt;
    TermRef a = tt.freshVar("a", 8);
    TermRef b = tt.freshVar("b", 8);
    IncrementalContext ctx(tt);
    ctx.assertPermanent({tt.mkEq(tt.mkAdd(a, b), tt.constant(8, 10))});
    ctx.assertPermanent({tt.mkEq(a, tt.constant(8, 3))});
    Model model;
    ASSERT_EQ(ctx.check(&model), CheckResult::Sat);
    EXPECT_EQ(model.leafValues.at(a.idx).toUint64(), 3u);
    EXPECT_EQ(model.leafValues.at(b.idx).toUint64(), 7u);
    // Conflicting permanent assertion: unconditional Unsat.
    ctx.assertPermanent({tt.mkEq(b, tt.constant(8, 9))});
    EXPECT_EQ(ctx.check(), CheckResult::Unsat);
    EXPECT_FALSE(ctx.lastUnsatWasConditional());
}

TEST(Incremental, GroupsMakeUnsatConditional)
{
    TermTable tt;
    TermRef x = tt.freshVar("x", 4);
    IncrementalContext ctx(tt);
    int g0 = ctx.addGroup({tt.mkEq(x, tt.constant(4, 5))});
    ASSERT_EQ(ctx.check(), CheckResult::Sat);
    int g1 = ctx.addGroup({tt.mkEq(x, tt.constant(4, 9))});
    // Both groups assumed at once: conflicting, but only under the
    // activation literals — the formula itself is not refuted.
    ASSERT_EQ(ctx.check(), CheckResult::Unsat);
    EXPECT_TRUE(ctx.lastUnsatWasConditional());
    std::vector<int> failed = ctx.failedGroups();
    ASSERT_FALSE(failed.empty());
    for (int g : failed)
        EXPECT_TRUE(g == g0 || g == g1);
    EXPECT_EQ(ctx.numGroups(), 2);
    EXPECT_GE(ctx.stats().solveCalls, 2u);
}

TEST(Incremental, ExtraAssumptionProbesDoNotStick)
{
    // The CEGIS lexmin canonicalization pattern: probe individual
    // bits of a variable with per-call assumptions. Failed probes
    // must not pollute later calls on the same context (regression:
    // analyzeFinal used to leave solver-internal state behind that
    // corrupted subsequent learning).
    TermTable tt;
    TermRef x = tt.freshVar("x", 4);
    TermRef y = tt.freshVar("y", 4);
    IncrementalContext ctx(tt);
    ctx.addGroup({tt.mkEq(tt.mkAdd(x, y), tt.constant(4, 12))});
    ctx.addGroup({tt.mkUlt(tt.constant(4, 9), x)});
    ASSERT_EQ(ctx.check(), CheckResult::Sat);
    std::vector<sat::Lit> bits = ctx.literalsOf(x);
    ASSERT_EQ(bits.size(), 4u);
    // Lexmin probe, msb to lsb: x must come out 10 (minimum > 9).
    std::vector<sat::Lit> fixed;
    uint64_t value = 0;
    for (int b = 3; b >= 0; b--) {
        fixed.push_back(~bits[b]);
        CheckResult r = ctx.check(nullptr, {}, nullptr, fixed);
        ASSERT_NE(r, CheckResult::Unknown);
        if (r == CheckResult::Unsat) {
            EXPECT_TRUE(ctx.lastUnsatWasConditional());
            fixed.back() = bits[b];
            value |= 1ull << b;
        }
    }
    EXPECT_EQ(value, 10u);
    // The probes were per-call: the context still solves, and a full
    // model agrees with the probed minimum under the same pins.
    Model model;
    ASSERT_EQ(ctx.check(&model, {}, nullptr, fixed), CheckResult::Sat);
    EXPECT_EQ(model.leafValues.at(x.idx).toUint64(), 10u);
    ASSERT_EQ(ctx.check(), CheckResult::Sat);
}

TEST(Incremental, StatsTrackEncodingReuse)
{
    TermTable tt;
    TermRef a = tt.freshVar("a", 8);
    TermRef b = tt.freshVar("b", 8);
    TermRef shared = tt.mkMul(a, b);
    IncrementalContext ctx(tt);
    ctx.addGroup({tt.mkEq(shared, tt.constant(8, 12))});
    uint64_t first_encoded = ctx.stats().nodesEncoded;
    EXPECT_GT(first_encoded, 0u);
    EXPECT_EQ(ctx.stats().cacheHits, 0u);
    // Second group reuses the multiplier encoding wholesale.
    ctx.addGroup({tt.mkUlt(shared, tt.constant(8, 100))});
    EXPECT_GT(ctx.stats().cacheHits, 0u);
    ASSERT_EQ(ctx.check(), CheckResult::Sat);
    ASSERT_EQ(ctx.check(), CheckResult::Sat);
    EXPECT_EQ(ctx.stats().solveCalls, 2u);
}

TEST(Incremental, SessionProofCheckOnUnconditionalUnsat)
{
    TermTable tt;
    TermRef x = tt.freshVar("x", 3);
    SolverPolicy o;
    o.checkProofs = true;
    IncrementalContext ctx(tt, o);
    ctx.assertPermanent({tt.mkUlt(x, tt.constant(3, 4))});
    ASSERT_EQ(ctx.check(), CheckResult::Sat);
    // A contradiction spread across two assertPermanent calls and two
    // solves: the session-long DRAT proof must replay cleanly (a
    // failure panics inside check()).
    ctx.assertPermanent({tt.mkUlt(tt.constant(3, 5), x)});
    CheckStats stats;
    ASSERT_EQ(ctx.check(nullptr, {}, &stats), CheckResult::Unsat);
    EXPECT_FALSE(stats.unsatConditional);
}

TEST(Incremental, RebuildsStrashGatesTheSimplifierEliminated)
{
    // Eq(x, y) hides one XOR gate per bit behind its AND chain. Those
    // gates are not cache outputs, so they stay unfrozen and the first
    // check()'s simplification round can eliminate them. Xor(x, y)
    // later asks the blaster for the same gates: a table hit whose
    // output was eliminated must be rebuilt over a fresh variable,
    // since reusing it would freeze or mention an eliminated variable
    // (both panic). Run with and without preprocessing: the second
    // batch makes more gates only where a round eliminated some.
    struct Session
    {
        uint64_t secondBatchGates = 0;
        std::vector<CheckResult> verdicts;
        int proofs = 0; ///< formula-level Unsat verdicts replayed
    };
    auto run = [](bool preprocess) {
        TermTable tt;
        TermRef x = tt.freshVar("x", 8);
        TermRef y = tt.freshVar("y", 8);
        TermRef same = tt.mkEq(x, y);
        TermRef mix = tt.mkXor(x, y);
        TermRef apart = tt.mkEq(mix, tt.constant(8, 0x5a));
        TermRef small = tt.mkUlt(mix, tt.constant(8, 0x40));
        SolverPolicy policy;
        policy.checkProofs = true;
        policy.preprocess = preprocess;
        IncrementalContext ctx(tt, policy);
        Session out;
        auto check = [&](std::vector<TermRef> oneshot) {
            CheckStats stats;
            CheckResult r = ctx.check(nullptr, {}, &stats);
            SolveLimits proofs;
            proofs.solver.checkProofs = true;
            EXPECT_EQ(r, checkSat(tt, oneshot, nullptr, proofs));
            // Every formula-level Unsat was replayed (a failed replay
            // panics inside check()).
            bool refuted = r == CheckResult::Unsat && !stats.unsatConditional;
            EXPECT_EQ(stats.proofChecked, refuted);
            out.proofs += stats.proofChecked;
            out.verdicts.push_back(r);
        };
        ctx.addGroup({same});
        check({same});
        uint64_t gates = ctx.blastStats().gates;
        ctx.addGroup({small});
        out.secondBatchGates = ctx.blastStats().gates - gates;
        check({same, small});
        ctx.addGroup({apart});
        check({same, small, apart});
        ctx.assertPermanent({apart});
        ctx.assertPermanent({same});
        check({same, small, apart});
        return out;
    };
    Session raw = run(false);
    Session simp = run(true);
    EXPECT_GT(simp.secondBatchGates, raw.secondBatchGates);
    EXPECT_EQ(simp.proofs, 1);
    EXPECT_EQ(raw.proofs, 1);
    EXPECT_EQ(simp.verdicts, raw.verdicts);
    EXPECT_EQ(simp.verdicts,
              (std::vector<CheckResult>{CheckResult::Sat, CheckResult::Sat,
                                        CheckResult::Unsat,
                                        CheckResult::Unsat}));
}

TEST(Incremental, CegisBitIdenticalToFreshPath)
{
    // The acceptance gate in miniature, on every registry design the
    // paper's tables use: the incremental CEGIS session must land on
    // exactly the hole values of the fresh solver-per-iteration path,
    // and of the raw path without CNF preprocessing (all are pinned to
    // the lexmin model of each synth query, which is a property of the
    // formula alone). The default run must also really simplify.
    obs::setEnabled(true);
    obs::Registry &reg = obs::Registry::instance();
    for (const char *name : {"rv32i", "accumulator", "alu-machine",
                             "rv32i-2stage", "crypto-core"}) {
        SCOPED_TRACE(name);
        auto run = [&](bool incremental, bool preprocess) {
            std::optional<designs::CaseStudy> cs =
                designs::makeCaseStudy(name);
            SynthesisOptions o;
            o.incremental = incremental;
            o.solver.preprocess = preprocess;
            return synthesizeControl(cs->sketch, cs->spec, cs->alpha, o);
        };
        uint64_t eliminated =
            reg.counterValue("sat.preprocess.vars_eliminated");
        SynthesisResult ri = run(true, true);
        eliminated =
            reg.counterValue("sat.preprocess.vars_eliminated") - eliminated;
        if (obs::enabled()) {
            EXPECT_GT(eliminated, 0u);
        }
        SynthesisResult rf = run(false, true);
        SynthesisResult rr = run(true, false);
        ASSERT_EQ(ri.status, SynthStatus::Ok) << ri.failedInstr;
        ASSERT_EQ(rf.status, SynthStatus::Ok) << rf.failedInstr;
        ASSERT_EQ(rr.status, SynthStatus::Ok) << rr.failedInstr;
        EXPECT_EQ(ri.cegisIterations, rf.cegisIterations);
        for (const SynthesisResult *other : {&rf, &rr}) {
            ASSERT_EQ(ri.perInstr.size(), other->perInstr.size());
            for (size_t i = 0; i < ri.perInstr.size(); i++) {
                const auto &[instr, holes] = ri.perInstr[i];
                const auto &[oinstr, oholes] = other->perInstr[i];
                ASSERT_EQ(instr, oinstr);
                ASSERT_EQ(holes.size(), oholes.size()) << instr;
                for (const auto &[hole, v] : holes)
                    EXPECT_TRUE(v == oholes.at(hole))
                        << (other == &rf ? "fresh " : "raw ") << instr
                        << "." << hole;
            }
        }
    }
}

namespace
{

/**
 * The lexmin candidate by the textbook sweep: one assumption probe
 * per hole bit (holes by name, msb first), no model guidance. Built
 * on its own term table and context from the same counterexamples.
 */
class FullProbeLexmin
{
  public:
    FullProbeLexmin(const designs::CaseStudy &cs, const ila::Instr &instr)
        : cs(cs), instr(instr), ctx(tt)
    {
        for (const oyster::Decl &d : cs.sketch.decls()) {
            if (d.kind == oyster::DeclKind::Hole)
                holes[d.name] = tt.freshVar("hole." + d.name, d.width);
        }
    }

    void addCex(const synth::Counterexample &cex)
    {
        oyster::SymRun run =
            synth::runWithCex(cs.sketch, cs.alpha, tt, holes, cex);
        synth::SpecCompiler sc(cs.spec, cs.alpha, tt, run, cs.sketch);
        ctx.addGroup({sc.compileInstr(instr).implication(tt)});
    }

    std::optional<synth::HoleValues> solve()
    {
        if (ctx.check() != CheckResult::Sat)
            return std::nullopt;
        synth::HoleValues out;
        std::vector<sat::Lit> fixed;
        for (const auto &[name, var] : holes) {
            std::vector<sat::Lit> lits = ctx.literalsOf(var);
            BitVec value(static_cast<int>(lits.size()));
            for (int b = static_cast<int>(lits.size()) - 1; b >= 0; b--) {
                fixed.push_back(~lits[b]);
                if (ctx.check(nullptr, {}, nullptr, fixed) ==
                    CheckResult::Unsat) {
                    fixed.back() = lits[b];
                    value.setBit(b, true);
                }
            }
            out[name] = value;
        }
        return out;
    }

  private:
    const designs::CaseStudy &cs;
    const ila::Instr &instr;
    TermTable tt;
    std::map<std::string, TermRef> holes;
    IncrementalContext ctx;
};

} // namespace

TEST(Incremental, ModelGuidedLexminMatchesFullProbe)
{
    // SynthSession::solve pins every hole bit its last Sat model has
    // at 0 without a solve; the sweep above probes every bit. Replay
    // each instruction's CEGIS run through both and compare after
    // every counterexample. rv32i-2stage reads memory, so its session
    // learns lazy Ackermann lemmas during the probes.
    obs::setEnabled(true);
    obs::Registry &reg = obs::Registry::instance();
    for (const char *name : {"alu-machine", "rv32i-2stage"}) {
        SCOPED_TRACE(name);
        std::optional<designs::CaseStudy> cs =
            designs::makeCaseStudy(name);
        ASSERT_TRUE(cs);
        synth::InstrSynthesizer isynth(cs->sketch, cs->spec, cs->alpha);
        synth::CegisOptions opts;
        int compared = 0;
        for (const auto &instr : cs->spec.instrs()) {
            SCOPED_TRACE(instr->name());
            synth::SynthSession session(cs->sketch, cs->spec, cs->alpha,
                                        instr->name(), opts);
            FullProbeLexmin ref(*cs, *instr);
            synth::HoleValues candidate;
            for (const oyster::Decl &d : cs->sketch.decls()) {
                if (d.kind == oyster::DeclKind::Hole)
                    candidate[d.name] = BitVec(d.width);
            }
            for (int iter = 0; iter < opts.maxIterations; iter++) {
                synth::Counterexample cex;
                SynthStatus v =
                    isynth.verifyCandidate(*instr, candidate, &cex, opts);
                if (v == SynthStatus::Ok)
                    break;
                ASSERT_EQ(v, SynthStatus::Unsat);
                session.addCex(cex);
                ref.addCex(cex);
                ASSERT_EQ(session.solve(candidate, opts), SynthStatus::Ok);
                std::optional<synth::HoleValues> want = ref.solve();
                ASSERT_TRUE(want);
                for (const auto &[hole, value] : *want)
                    EXPECT_TRUE(candidate.at(hole) == value) << hole;
                compared++;
            }
            // No group since the last solve: the memo answers it.
            uint64_t checks = reg.counterValue("smt.checks");
            synth::HoleValues again;
            if (session.groups() > 0) {
                ASSERT_EQ(session.solve(again, opts), SynthStatus::Ok);
                EXPECT_TRUE(again == candidate);
            }
            EXPECT_EQ(reg.counterValue("smt.checks"), checks);
        }
        EXPECT_GT(compared, 0);
    }
}

TEST(Incremental, BackToBackSynthSessionsInProcess)
{
    // Two full synthesis runs in one process (each instruction runs
    // its own incremental session; this additionally checks teardown
    // and re-construction across whole designs — the ASan entry runs
    // this file, so leaks or use-after-free in session lifetime show
    // up here).
    for (int round = 0; round < 2; round++) {
        designs::CaseStudy cs = designs::makeAccumulator();
        SynthesisResult r =
            synthesizeControl(cs.sketch, cs.spec, cs.alpha);
        ASSERT_EQ(r.status, SynthStatus::Ok) << "round " << round;
        EXPECT_FALSE(cs.sketch.hasHoles());
    }
}

TEST(Incremental, SealedContextRejectsGrowth)
{
    // checkSat()'s context is sealed after its one batch: it froze
    // only the lemma bits, so a later clause could mention an
    // eliminated variable. Growing it is a caller bug.
    TermTable tt;
    TermRef x = tt.freshVar("x", 4);
    TermRef small = tt.mkUlt(x, tt.constant(4, 3));
    IncrementalContext ctx(tt);
    ctx.assertPermanent({small});
    ctx.seal();
    EXPECT_THROW(ctx.assertPermanent({small}), PanicError);
    EXPECT_THROW(ctx.addGroup({small}), PanicError);
    EXPECT_THROW(ctx.literalsOf(x), PanicError);
    EXPECT_EQ(ctx.check(), CheckResult::Sat);
}
