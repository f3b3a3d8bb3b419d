/**
 * @file
 * End-to-end tests for the control logic synthesis engine on the
 * paper's §2 examples: the FSM-style accumulator and the
 * instruction-decoder-style three-stage ALU machine.
 *
 * Each test synthesizes control, formally re-verifies the completed
 * design against the spec, and then simulates it concretely against
 * an independent architectural model.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>

#include "designs/accumulator.h"
#include "designs/alu_machine.h"
#include "designs/registry.h"
#include "core/synthesis.h"
#include "ila/ila.h"
#include "obs/obs.h"
#include "oyster/interp.h"
#include "oyster/printer.h"

using namespace owl;
using namespace owl::designs;
using namespace owl::synth;
using oyster::Interpreter;

TEST(CoreAccumulator, SynthesizesAndVerifies)
{
    CaseStudy cs = makeAccumulator();
    SynthesisResult r = synthesizeControl(cs.sketch, cs.spec, cs.alpha);
    ASSERT_EQ(r.status, SynthStatus::Ok)
        << "failed at " << r.failedInstr;
    EXPECT_EQ(r.perInstr.size(), 3u);
    EXPECT_FALSE(cs.sketch.hasHoles());
    // Independent formal check of the completed design.
    std::string failed;
    EXPECT_EQ(verifyDesign(cs.sketch, cs.spec, cs.alpha, &failed),
              SynthStatus::Ok)
        << "verification failed at " << failed;
}

TEST(CoreAccumulator, TransitionTargetsMatchSpec)
{
    CaseStudy cs = makeAccumulator();
    SynthesisResult r = synthesizeControl(cs.sketch, cs.spec, cs.alpha);
    ASSERT_EQ(r.status, SynthStatus::Ok);
    // The synthesized st_next per instruction must be the spec's
    // state encoding, since st maps to the architectural state.
    for (const auto &[name, holes] : r.perInstr) {
        uint64_t target = holes.at("st_next").toUint64();
        if (name == "reset_instr")
            EXPECT_EQ(target, accRESET);
        else if (name == "go_instr")
            EXPECT_EQ(target, accGO);
        else
            EXPECT_EQ(target, accSTOP);
    }
}

TEST(CoreAccumulator, SimulationFollowsFsm)
{
    CaseStudy cs = makeAccumulator();
    ASSERT_EQ(synthesizeControl(cs.sketch, cs.spec, cs.alpha).status,
              SynthStatus::Ok);
    Interpreter sim(cs.sketch);
    // Start in STOP, reset, then accumulate 5 and 7, then stop.
    sim.setReg("st", BitVec(2, accSTOP));
    sim.setReg("acc", BitVec(8, 99));
    auto in = [&](uint64_t rst, uint64_t go, uint64_t stop,
                  uint64_t val) {
        return oyster::InputMap{{"reset", BitVec(1, rst)},
                                {"go", BitVec(1, go)},
                                {"stop", BitVec(1, stop)},
                                {"val", BitVec(8, val)}};
    };
    sim.step(in(1, 0, 0, 0)); // reset_instr
    EXPECT_EQ(sim.reg("acc").toUint64(), 0u);
    EXPECT_EQ(sim.reg("st").toUint64(), accRESET);
    sim.step(in(0, 1, 0, 5)); // go_instr (from RESET)
    EXPECT_EQ(sim.reg("acc").toUint64(), 5u);
    EXPECT_EQ(sim.reg("st").toUint64(), accGO);
    sim.step(in(0, 0, 0, 7)); // go_instr (stay in GO)
    EXPECT_EQ(sim.reg("acc").toUint64(), 12u);
    sim.step(in(0, 0, 1, 3)); // stop_instr
    EXPECT_EQ(sim.reg("acc").toUint64(), 12u);
    EXPECT_EQ(sim.reg("st").toUint64(), accSTOP);
}

TEST(CoreAccumulator, GeneratedControlPrints)
{
    CaseStudy cs = makeAccumulator();
    ASSERT_EQ(synthesizeControl(cs.sketch, cs.spec, cs.alpha).status,
              SynthStatus::Ok);
    std::string ctrl = oyster::printGeneratedControl(cs.sketch);
    EXPECT_NE(ctrl.find("pre_go_instr"), std::string::npos);
    EXPECT_NE(ctrl.find("st_next"), std::string::npos);
    EXPECT_GT(oyster::countLines(ctrl), 5);
}

TEST(CoreAccumulator, MonolithicMatchesPerInstruction)
{
    // Equation (1) vs the §3.3.1 optimization: both complete on this
    // small design and both produce verifying control.
    CaseStudy a = makeAccumulator();
    SynthesisOptions mono;
    mono.strategy = Strategy::Monolithic;
    SynthesisResult r = synthesizeControl(a.sketch, a.spec, a.alpha,
                                          mono);
    ASSERT_EQ(r.status, SynthStatus::Ok);
    EXPECT_EQ(verifyDesign(a.sketch, a.spec, a.alpha), SynthStatus::Ok);
}

TEST(CoreAccumulator, UnsatSketchReportsFailure)
{
    // Break the sketch (accumulate with XOR instead of ADD): go_instr
    // becomes unsynthesizable and the engine must say so.
    CaseStudy cs = makeAccumulator();
    oyster::Design d("acc_broken");
    d.addInput("reset", 1);
    d.addInput("go", 1);
    d.addInput("stop", 1);
    d.addInput("val", 8);
    d.addRegister("acc", 8);
    d.addRegister("st", 2);
    d.addOutput("out", 8);
    d.addHole("fsm", 2, {});
    d.addHole("enc_reset", 2, {});
    d.addHole("enc_go", 2, {});
    d.addHole("enc_stop", 2, {});
    d.addHole("st_next", 2, {});
    auto acc = d.var("acc");
    auto upd = d.opIte(
        d.opEq(d.var("fsm"), d.var("enc_reset")), d.lit(8, 0),
        d.opIte(d.opEq(d.var("fsm"), d.var("enc_go")),
                d.opXor(acc, d.var("val")), acc));
    d.assign("acc", upd);
    d.assign("st", d.var("st_next"));
    d.assign("out", acc);

    // The parallel strategy reports the same first failure.
    SynthesisOptions par;
    par.strategy = Strategy::PerInstructionParallel;
    par.jobs = 4;
    for (const SynthesisOptions &opts : {SynthesisOptions{}, par}) {
        SCOPED_TRACE(strategyName(opts.strategy));
        SynthesisResult r = synthesizeControl(d, cs.spec, cs.alpha, opts);
        EXPECT_EQ(r.status, SynthStatus::Unsat);
        EXPECT_EQ(r.failedInstr, "go_instr");
    }
}

TEST(CoreAluMachine, SynthesizesAndVerifies)
{
    CaseStudy cs = makeAluMachine();
    SynthesisResult r = synthesizeControl(cs.sketch, cs.spec, cs.alpha);
    ASSERT_EQ(r.status, SynthStatus::Ok)
        << "failed at " << r.failedInstr;
    std::string failed;
    EXPECT_EQ(verifyDesign(cs.sketch, cs.spec, cs.alpha, &failed),
              SynthStatus::Ok)
        << "verification failed at " << failed;

    // The synthesized decoder must pick the right ALU ops and only
    // write the register file for real operations.
    for (const auto &[name, holes] : r.perInstr) {
        if (name == "NOP") {
            EXPECT_EQ(holes.at("reg_write").toUint64(), 0u);
        } else {
            EXPECT_EQ(holes.at("reg_write").toUint64(), 1u);
            uint64_t op = holes.at("alu_op").toUint64();
            if (name == "ADD") {
                EXPECT_EQ(op, aluADD);
            } else if (name == "XOR") {
                EXPECT_EQ(op, aluXOR);
            } else if (name == "SUB") {
                EXPECT_EQ(op, aluSUB);
            }
        }
    }
}

namespace
{

/** Counter deltas that show which solver policy a phase ran under. */
struct PolicyTrace
{
    uint64_t proofsChecked = 0;    ///< checkProofs, unconditional Unsat
    uint64_t unsatConditional = 0; ///< checkProofs, incremental probes
    uint64_t simpRounds = 0;       ///< preprocess
    uint64_t phaseCalls = 0;       ///< profileSat
    uint64_t ackScans = 0;         ///< lazy Ackermann (not eager)
    uint64_t ackRounds = 0;
    uint64_t ackConstraints = 0;
};

PolicyTrace
tracePhase(const std::function<void()> &phase)
{
    static const char *const names[] = {
        "drat.proofs_checked", "drat.unsat_conditional",
        "sat.preprocess.rounds", "sat.phase.propagate.calls",
        "smt.ackermann.scans", "smt.ackermann.rounds",
        "smt.ackermann_constraints"};
    obs::Registry &reg = obs::Registry::instance();
    std::map<std::string, uint64_t> before;
    for (const char *n : names)
        before[n] = reg.counterValue(n);
    phase();
    auto delta = [&](const char *n) {
        return reg.counterValue(n) - before[n];
    };
    PolicyTrace t;
    t.proofsChecked = delta(names[0]);
    t.unsatConditional = delta(names[1]);
    t.simpRounds = delta(names[2]);
    t.phaseCalls = delta(names[3]);
    t.ackScans = delta(names[4]);
    t.ackRounds = delta(names[5]);
    t.ackConstraints = delta(names[6]);
    return t;
}

/**
 * Under one policy on alu-machine: solve one counterexample in a bare
 * SynthSession (the incremental layer alone), synthesize through the
 * fresh per-iteration path and then incrementally, and run the mutual
 * exclusion check and verification. One trace per phase.
 */
std::vector<PolicyTrace>
tracePolicyRun(const smt::SolverPolicy &policy)
{
    CaseStudy cs = makeAluMachine();
    SynthesisOptions opts;
    opts.solver = policy;
    CegisOptions copts;
    copts.solver = policy;
    std::vector<PolicyTrace> traces;

    HoleValues zero;
    for (const oyster::Decl &d : cs.sketch.decls()) {
        if (d.kind == oyster::DeclKind::Hole)
            zero.emplace(d.name, BitVec(d.width));
    }
    InstrSynthesizer isynth(cs.sketch, cs.spec, cs.alpha);
    Counterexample cex;
    EXPECT_EQ(isynth.verifyCandidate(cs.spec.instr("ADD"), zero, &cex,
                                     copts),
              SynthStatus::Unsat);
    traces.push_back(tracePhase([&] {
        SynthSession session(cs.sketch, cs.spec, cs.alpha, "ADD", copts);
        session.addCex(cex);
        HoleValues candidate;
        EXPECT_EQ(session.solve(candidate, copts), SynthStatus::Ok);
    }));
    traces.push_back(tracePhase([&] {
        CaseStudy fresh = makeAluMachine();
        SynthesisOptions fopts = opts;
        fopts.incremental = false;
        SynthesisResult r = synthesizeControl(fresh.sketch, fresh.spec,
                                              fresh.alpha, fopts);
        EXPECT_EQ(r.status, SynthStatus::Ok) << r.failedInstr;
    }));
    traces.push_back(tracePhase([&] {
        SynthesisResult r =
            synthesizeControl(cs.sketch, cs.spec, cs.alpha, opts);
        EXPECT_EQ(r.status, SynthStatus::Ok) << r.failedInstr;
    }));
    traces.push_back(tracePhase([&] {
        EXPECT_EQ(checkMutualExclusion(cs.sketch, cs.spec, cs.alpha,
                                       nullptr, copts),
                  SynthStatus::Ok);
    }));
    traces.push_back(tracePhase([&] {
        EXPECT_EQ(verifyDesign(cs.sketch, cs.spec, cs.alpha, nullptr,
                               copts),
                  SynthStatus::Ok);
    }));
    return traces;
}

} // namespace

TEST(CoreSolverPolicy, ReachesEverySolverOfTheRun)
{
    // The policy is set once, on SynthesisOptions / CegisOptions, and
    // must reach the fresh checkSat solvers (CEGIS verify, mutual
    // exclusion, verifyDesign), the throwaway synth contexts of the
    // fresh path and the incremental synth sessions alike. The default
    // run is the control: it shows each counter would have moved had
    // a layer dropped the policy. A bare session books no unconditional
    // Unsat, and the mutual exclusion queries are refuted while their
    // clauses are added, before any search or simplification.
    obs::setEnabled(true);
    if (!obs::enabled())
        GTEST_SKIP() << "needs the obs layer compiled in";
    const char *phase_names[] = {"session", "fresh synth", "synth",
                                 "mutex", "verifyDesign"};

    smt::SolverPolicy policy;
    policy.checkProofs = true;
    policy.profileSat = true;
    policy.preprocess = false;
    policy.eagerAckermann = true;
    std::vector<PolicyTrace> got = tracePolicyRun(policy);
    std::vector<PolicyTrace> ref = tracePolicyRun(smt::SolverPolicy{});
    ASSERT_EQ(got.size(), 5u);
    ASSERT_EQ(ref.size(), 5u);
    for (size_t i = 0; i < got.size(); i++) {
        SCOPED_TRACE(phase_names[i]);
        EXPECT_EQ(got[i].simpRounds, 0u);
        EXPECT_EQ(got[i].ackScans, 0u);
        EXPECT_EQ(got[i].ackRounds, 0u);
        EXPECT_EQ(ref[i].proofsChecked, 0u);
        if (i > 0) {
            EXPECT_GT(got[i].proofsChecked, 0u);
        }
        if (i == 3)
            continue;
        EXPECT_GT(got[i].phaseCalls, 0u);
        EXPECT_EQ(ref[i].phaseCalls, 0u);
        EXPECT_GT(ref[i].simpRounds, 0u);
    }
    // The synth contexts book their conditional lexmin probes only
    // under checkProofs.
    for (size_t i : {0, 1, 2}) {
        SCOPED_TRACE(phase_names[i]);
        EXPECT_GT(got[i].unsatConditional, 0u);
        EXPECT_EQ(ref[i].unsatConditional, 0u);
    }
    // Lazy Ackermann scans every Sat model of the CEGIS verify
    // queries, while eager mode asserts their pairs up front, as it
    // does for verifyDesign.
    for (size_t i : {1, 2, 4}) {
        SCOPED_TRACE(phase_names[i]);
        EXPECT_GT(got[i].ackConstraints, ref[i].ackConstraints);
        if (i != 4) {
            EXPECT_GT(ref[i].ackScans, 0u);
        }
    }
}

TEST(CoreAluMachine, PipelinedSimulationMatchesSpec)
{
    // Run a random instruction stream through the completed pipeline
    // and compare the architectural register file with a direct model.
    CaseStudy cs = makeAluMachine();
    ASSERT_EQ(synthesizeControl(cs.sketch, cs.spec, cs.alpha).status,
              SynthStatus::Ok);
    Interpreter sim(cs.sketch);

    uint8_t model[4] = {0, 0, 0, 0};
    struct Op
    {
        uint64_t op, dest, src1, src2;
    };
    std::mt19937 rng(7);
    std::vector<Op> program;
    for (int i = 0; i < 40; i++)
        program.push_back(
            {rng() % 4, rng() % 4, rng() % 4, rng() % 4});
    // Issue one instruction per cycle with two NOP bubbles after each
    // (the sketch has no forwarding; the spec is per-instruction).
    for (const Op &o : program) {
        sim.step({{"op", BitVec(2, o.op)},
                  {"dest", BitVec(2, o.dest)},
                  {"src1", BitVec(2, o.src1)},
                  {"src2", BitVec(2, o.src2)}});
        sim.step({{"op", BitVec(2, 0)}});
        sim.step({{"op", BitVec(2, 0)}});
        uint8_t a = model[o.src1], b = model[o.src2];
        switch (o.op) {
          case 0: break;
          case 1: model[o.dest] = a + b; break;
          case 2: model[o.dest] = a ^ b; break;
          case 3: model[o.dest] = a - b; break;
        }
        for (int rj = 0; rj < 4; rj++) {
            ASSERT_EQ(sim.memWord("regfile", rj).toUint64(),
                      model[rj])
                << "reg " << rj << " after op " << o.op;
        }
    }
}

TEST(CoreAluMachine, SketchSizeIsReported)
{
    CaseStudy cs = makeAluMachine();
    EXPECT_GT(oyster::sketchSizeLoc(cs.sketch), 20);
}

// ---- verifyDesign ------------------------------------------------------

namespace
{

/** The counters of a verification pass's solver work. */
const char *const kVerifyWork[] = {"smt.checks", "smt.term_nodes",
                                   "sat.conflicts", "sat.propagations"};

std::map<std::string, uint64_t>
verifyWork()
{
    std::map<std::string, uint64_t> out;
    for (const char *n : kVerifyWork)
        out[n] = obs::Registry::instance().counterValue(n);
    return out;
}

} // namespace

TEST(CoreVerify, ParallelMatchesSequential)
{
    // Each instruction's query has its own term table and solver, so
    // running them on four workers changes neither the verdict nor
    // the solver work.
    for (const char *name : {"alu-machine", "rv32i", "crypto-core"}) {
        SCOPED_TRACE(name);
        std::optional<CaseStudy> cs = makeCaseStudy(name);
        ASSERT_TRUE(cs);
        SynthesisOptions opts;
        opts.strategy = Strategy::PerInstructionParallel;
        opts.jobs = 4;
        SynthesisResult r =
            synthesizeControl(cs->sketch, cs->spec, cs->alpha, opts);
        ASSERT_EQ(r.status, SynthStatus::Ok) << r.failedInstr;

        const int jobs[2] = {1, 4};
        std::map<std::string, uint64_t> work[2];
        for (int k = 0; k < 2; k++) {
            SCOPED_TRACE(jobs[k]);
            std::map<std::string, uint64_t> before = verifyWork();
            std::string failed;
            EXPECT_EQ(verifyDesign(cs->sketch, cs->spec, cs->alpha,
                                   &failed, {}, jobs[k]),
                      SynthStatus::Ok)
                << "failed at " << failed;
            for (auto &[n, v] : verifyWork())
                work[k][n] = v - before[n];
        }
        if (obs::enabled()) {
            EXPECT_GT(work[0]["smt.checks"], 0u);
            EXPECT_EQ(work[0], work[1]);
        }
    }
}

TEST(CoreVerify, ReportsFirstWrongInstructionInOrder)
{
    CaseStudy ref = makeAluMachine();
    SynthesisResult r = synthesizeControl(ref.sketch, ref.spec, ref.alpha);
    ASSERT_EQ(r.status, SynthStatus::Ok) << r.failedInstr;

    // Wrong ALU ops on ADD and on SUB. The spec order is NOP, ADD,
    // XOR, SUB: ADD is the first wrong instruction, and a correct one
    // comes before it.
    PerInstrResults wrong = r.perInstr;
    for (auto &[name, holes] : wrong) {
        if (name == "ADD")
            holes.at("alu_op") = BitVec(2, aluXOR);
        if (name == "SUB")
            holes.at("alu_op") = BitVec(2, aluADD);
    }
    CaseStudy cs = makeAluMachine();
    applyControlUnion(cs.sketch, cs.spec, cs.alpha, wrong);
    for (int rep = 0; rep < 20; rep++) {
        for (int jobs : {1, 4}) {
            SCOPED_TRACE(jobs);
            std::string failed;
            EXPECT_EQ(verifyDesign(cs.sketch, cs.spec, cs.alpha, &failed,
                                   {}, jobs),
                      SynthStatus::Unsat);
            EXPECT_EQ(failed, "ADD");
        }
    }

    // A deadline that has passed stops the correct design at its
    // first instruction too.
    CegisOptions expired;
    expired.deadline =
        std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
    for (int jobs : {1, 4}) {
        SCOPED_TRACE(jobs);
        std::string failed;
        EXPECT_EQ(verifyDesign(ref.sketch, ref.spec, ref.alpha, &failed,
                               expired, jobs),
                  SynthStatus::Timeout);
        EXPECT_EQ(failed, "NOP");
    }
}

namespace
{

using DecodeOf = std::function<ila::IlaExpr(ila::Ila &, const ila::IlaExpr &)>;

/**
 * checkMutualExclusion over a one-register datapath whose spec has
 * one instruction per entry of `decodes`, named A, B, ... in order,
 * each decoding the 3-bit input op with its function.
 */
SynthStatus
mutexOf(const std::vector<DecodeOf> &decodes, std::string *pair)
{
    ila::Ila spec("overlap");
    ila::IlaExpr op = spec.NewBvInput("op", 3);
    ila::IlaExpr acc = spec.NewBvState("acc", 8);
    for (size_t i = 0; i < decodes.size(); i++) {
        ila::Instr &in = spec.NewInstr(std::string(1, char('A' + i)));
        in.SetDecode(decodes[i](spec, op));
        in.SetUpdate(acc, acc);
    }
    oyster::Design d("overlap_dp");
    d.addInput("op", 3);
    d.addRegister("acc", 8);
    d.assign("acc", d.var("acc"));
    AbsFunc alpha;
    alpha.map("op", "op", MapType::Input, {{Effect::Read, 1}});
    alpha.map("acc", "acc", MapType::Register,
              {{Effect::Read, 1}, {Effect::Write, 1}});
    alpha.withCycles(1);
    return checkMutualExclusion(d, spec, alpha, pair);
}

DecodeOf
opIs(uint64_t v)
{
    return [v](ila::Ila &spec, const ila::IlaExpr &op) {
        return op == ila::BvConst(spec.ctx(), v, 3);
    };
}

} // namespace

TEST(CoreVerify, OverlappingDecodesReportTheFirstPairInOrder)
{
    // One query clears an instruction against every later one; only a
    // Sat one falls back to pairs. The pair reported must still be the
    // first overlapping one in (first, second) order, as a scan of all
    // pairs finds it.
    DecodeOf odd = [](ila::Ila &spec, const ila::IlaExpr &op) {
        return ila::Extract(op, 0, 0) == ila::BvConst(spec.ctx(), 1, 1);
    };
    DecodeOf low = [](ila::Ila &spec, const ila::IlaExpr &op) {
        return op <= ila::BvConst(spec.ctx(), 1, 3);
    };
    struct Case
    {
        std::vector<DecodeOf> decodes;
        SynthStatus status;
        std::string pair;
    };
    const Case cases[] = {
        // D (odd op) overlaps B (op 1) and E (op 3); B/D comes first.
        {{opIs(0), opIs(1), opIs(2), odd, opIs(3)},
         SynthStatus::Unsat, "B/D"},
        // A (op <= 1) is disjoint from B and C, then meets D.
        {{low, opIs(2), opIs(3), opIs(1), opIs(0)},
         SynthStatus::Unsat, "A/D"},
        // The overlap is the last pair.
        {{opIs(0), opIs(1), opIs(2), opIs(3), opIs(3)},
         SynthStatus::Unsat, "D/E"},
        {{opIs(0), opIs(1), opIs(2), opIs(3)}, SynthStatus::Ok, ""},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.pair);
        std::string pair;
        EXPECT_EQ(mutexOf(c.decodes, &pair), c.status);
        EXPECT_EQ(pair, c.pair);
    }
}

TEST(CoreVerify, PresetCallerCancelStopsAtFirstInstruction)
{
    CaseStudy cs = makeAluMachine();
    SynthesisResult r = synthesizeControl(cs.sketch, cs.spec, cs.alpha);
    ASSERT_EQ(r.status, SynthStatus::Ok) << r.failedInstr;
    std::atomic<bool> cancel{true};
    CegisOptions opts;
    opts.cancelFlag = &cancel;
    for (int jobs : {1, 4}) {
        SCOPED_TRACE(jobs);
        std::string failed;
        EXPECT_EQ(verifyDesign(cs.sketch, cs.spec, cs.alpha, &failed,
                               opts, jobs),
                  SynthStatus::Timeout);
        EXPECT_EQ(failed, "NOP");
    }
}

TEST(CoreVerify, CallerCancelFromAnotherThreadReturnsPromptly)
{
    // The caller's flag reaches the worker threads only through the
    // joining thread's relay: without it every task would run to
    // Unsat and the design would verify.
    std::optional<CaseStudy> cs = makeCaseStudy("rv32i-2stage");
    ASSERT_TRUE(cs);
    SynthesisOptions sopts;
    sopts.strategy = Strategy::PerInstructionParallel;
    sopts.jobs = 4;
    SynthesisResult r =
        synthesizeControl(cs->sketch, cs->spec, cs->alpha, sopts);
    ASSERT_EQ(r.status, SynthStatus::Ok) << r.failedInstr;

    std::atomic<bool> cancel{false};
    CegisOptions opts;
    opts.cancelFlag = &cancel;
    std::chrono::steady_clock::time_point cancelled_at;
    std::thread canceller([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        cancelled_at = std::chrono::steady_clock::now();
        cancel = true;
    });
    std::string failed;
    SynthStatus v =
        verifyDesign(cs->sketch, cs->spec, cs->alpha, &failed, opts, 4);
    auto returned = std::chrono::steady_clock::now();
    canceller.join();
    EXPECT_EQ(v, SynthStatus::Timeout) << failed;
    // In-flight tasks stop at their next SAT-loop poll; the bound is
    // loose enough for sanitizer builds.
    EXPECT_LT(returned - cancelled_at, std::chrono::seconds(5));
}
