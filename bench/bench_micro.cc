/**
 * @file
 * Google-benchmark micro benchmarks for the substrate layers: the SAT
 * solver, the bit-blaster, one lazy-Ackermann query and one fixed
 * registry verify query through smt::checkSat, symbolic evaluation of the RISC-V core,
 * one-instruction CEGIS, the AES accelerator interpreter, and the
 * netlist optimizer. These track the constants behind the Table 1
 * times.
 *
 * The BM_SatSolveObsEnabled/Disabled pair runs the identical SAT
 * workload with owl::obs recording on and off; their times should be
 * indistinguishable, verifying that the disabled instrumentation path
 * adds no measurable overhead to sat::Solver::solve. After the run,
 * the obs registry accumulated across all benchmarks is exported to
 * BENCH_micro_obs.json (override with OWL_STATS_JSON).
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <random>

#include "core/spec_compiler.h"
#include "core/synthesis.h"
#include "designs/registry.h"
#include "obs/obs.h"
#include "designs/aes_accelerator.h"
#include "designs/aes_tables.h"
#include "designs/riscv_single_cycle.h"
#include "netlist/compile.h"
#include "netlist/optimize.h"
#include "oyster/interp.h"
#include "oyster/symeval.h"
#include "sat/solver.h"
#include "smt/solver.h"

using namespace owl;

static void
BM_SatRandom3Sat(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    std::mt19937 rng(42);
    for (auto _ : state) {
        sat::Solver s;
        for (int i = 0; i < n; i++)
            (void)s.newVar();
        int m = static_cast<int>(n * 4.1);
        for (int c = 0; c < m; c++) {
            s.addClause(sat::Lit(rng() % n, rng() % 2),
                        sat::Lit(rng() % n, rng() % 2),
                        sat::Lit(rng() % n, rng() % 2));
        }
        benchmark::DoNotOptimize(s.solve());
    }
}
BENCHMARK(BM_SatRandom3Sat)->Arg(50)->Arg(100)->Arg(150);

namespace
{

/** Fixed random-3SAT workload shared by the obs on/off pair. */
void
satObsWorkload(benchmark::State &state)
{
    const int n = 100;
    for (auto _ : state) {
        std::mt19937 rng(7);
        sat::Solver s;
        for (int i = 0; i < n; i++)
            (void)s.newVar();
        int m = static_cast<int>(n * 4.1);
        for (int c = 0; c < m; c++) {
            s.addClause(sat::Lit(rng() % n, rng() % 2),
                        sat::Lit(rng() % n, rng() % 2),
                        sat::Lit(rng() % n, rng() % 2));
        }
        benchmark::DoNotOptimize(s.solve());
    }
}

} // namespace

static void
BM_SatSolveObsEnabled(benchmark::State &state)
{
    obs::setEnabled(true);
    satObsWorkload(state);
}
BENCHMARK(BM_SatSolveObsEnabled);

static void
BM_SatSolveObsDisabled(benchmark::State &state)
{
    obs::setEnabled(false);
    satObsWorkload(state);
    obs::setEnabled(true);
}
BENCHMARK(BM_SatSolveObsDisabled);

static void
BM_BitblastAddMulEquality(benchmark::State &state)
{
    const int w = static_cast<int>(state.range(0));
    for (auto _ : state) {
        smt::TermTable tt;
        auto a = tt.freshVar("a", w);
        auto b = tt.freshVar("b", w);
        auto lhs = tt.mkMul(tt.mkAdd(a, b), tt.constant(w, 3));
        auto rhs = tt.mkAdd(tt.mkMul(a, tt.constant(w, 3)),
                            tt.mkMul(b, tt.constant(w, 3)));
        auto r = smt::checkSat(tt, {tt.mkNe(lhs, rhs)});
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_BitblastAddMulEquality)->Arg(8)->Arg(16)->Arg(32);

/**
 * A one-shot query the lazy Ackermann path must refine once: two
 * reads of one memory whose addresses are forced equal while the
 * values are asserted different. The first model violates
 * congruence, one lemma over the read and address bits makes the
 * query Unsat. Times the sealed path end to end: blast, freeze the
 * lemma bits, simplify, solve, scan, refine, re-solve.
 */
static void
BM_CheckSatLazyLemma(benchmark::State &state)
{
    smt::TermTable tt;
    auto x = tt.freshVar("x", 8);
    auto y = tt.freshVar("y", 8);
    auto a1 = tt.mkAnd(x, tt.constant(8, 0x0f));
    auto a2 = tt.mkAnd(y, tt.constant(8, 0x0f));
    auto r1 = tt.baseRead(0, a1, 16);
    auto r2 = tt.baseRead(0, a2, 16);
    const std::vector<smt::TermRef> query = {
        tt.mkEq(a1, a2), tt.mkNe(x, y), tt.mkNe(r1, r2)};
    for (auto _ : state) {
        smt::CheckStats stats;
        smt::CheckResult r = smt::checkSat(tt, query, nullptr, {}, &stats);
        if (r != smt::CheckResult::Unsat || stats.ackermannRounds != 1) {
            state.SkipWithError("expected Unsat after one lemma round");
            return;
        }
    }
}
BENCHMARK(BM_CheckSatLazyLemma);

/**
 * The SAT-layer kernel of verification: one fixed query, built once,
 * timed through smt::checkSat (bit-blast, CNF simplification, CDCL)
 * with the pipeline's default solver policy. The query is the final
 * CEGIS verify step of rv32i-2stage's SRA: the sketch with SRA's
 * synthesized holes folded in, asserting Pre ∧ assumes ∧ ¬Post
 * (Unsat). Symbolic evaluation, spec compilation and the CEGIS loop
 * stay outside the timed region.
 */
static void
BM_VerifyQueryKernel(benchmark::State &state)
{
    std::optional<designs::CaseStudy> cs =
        designs::makeCaseStudy("rv32i-2stage");
    const ila::Instr &instr = cs->spec.instr("SRA");
    synth::InstrSynthesizer syn(cs->sketch, cs->spec, cs->alpha);
    synth::CegisOptions opts;
    synth::CegisResult holes = syn.synthesize(instr, nullptr, opts);
    if (holes.status != synth::SynthStatus::Ok) {
        state.SkipWithError("synthesis failed");
        return;
    }
    smt::TermTable tt;
    oyster::SymbolicEvaluator ev(cs->sketch, tt);
    for (const auto &[name, value] : holes.holes)
        ev.setHole(name, tt.constant(value));
    synth::applyInitAliases(cs->sketch, cs->alpha, tt, ev);
    oyster::SymRun run = ev.run(cs->alpha.cycles());
    synth::SpecCompiler sc(cs->spec, cs->alpha, tt, run, cs->sketch);
    std::vector<smt::TermRef> query =
        sc.compileInstr(instr).violation(tt);
    const smt::SolveLimits limits = opts.solveLimits();
    for (auto _ : state) {
        smt::CheckResult r = smt::checkSat(tt, query, nullptr, limits);
        if (r != smt::CheckResult::Unsat) {
            state.SkipWithError("verify query is not Unsat");
            return;
        }
    }
}
BENCHMARK(BM_VerifyQueryKernel)->Unit(benchmark::kMillisecond);

static void
BM_SymbolicEvalRiscvSingleCycle(benchmark::State &state)
{
    designs::CaseStudy cs =
        designs::makeRiscvSingleCycle(designs::RiscvVariant::RV32I);
    for (auto _ : state) {
        smt::TermTable tt;
        oyster::SymbolicEvaluator ev(cs.sketch, tt);
        for (const auto &d : cs.sketch.decls()) {
            if (d.kind == oyster::DeclKind::Hole)
                ev.setHole(d.name, tt.constant(BitVec(d.width)));
        }
        auto run = ev.run(1);
        benchmark::DoNotOptimize(run.states.size());
    }
}
BENCHMARK(BM_SymbolicEvalRiscvSingleCycle)->Iterations(20);

static void
BM_CegisOneInstruction(benchmark::State &state)
{
    designs::CaseStudy cs =
        designs::makeRiscvSingleCycle(designs::RiscvVariant::RV32I);
    synth::InstrSynthesizer syn(cs.sketch, cs.spec, cs.alpha);
    const ila::Instr &add = cs.spec.instr("ADD");
    for (auto _ : state) {
        synth::CegisOptions opts;
        auto r = syn.synthesize(add, nullptr, opts);
        benchmark::DoNotOptimize(r.status);
    }
}
BENCHMARK(BM_CegisOneInstruction)->Iterations(5);

static void
BM_AesBlockOnInterpreter(benchmark::State &state)
{
    designs::CaseStudy cs = designs::makeAesAccelerator();
    synth::SynthesisResult r =
        synth::synthesizeControl(cs.sketch, cs.spec, cs.alpha);
    if (r.status != synth::SynthStatus::Ok) {
        state.SkipWithError("synthesis failed");
        return;
    }
    uint8_t key[16] = {}, plain[16] = {1, 2, 3};
    oyster::InputMap in{{"key_in", designs::aesPackBlock(key)},
                        {"plaintext", designs::aesPackBlock(plain)}};
    for (auto _ : state) {
        oyster::Interpreter sim(cs.sketch);
        for (int c = 0; c < 11; c++)
            sim.step(in);
        benchmark::DoNotOptimize(sim.reg("ciphertext").toUint64());
    }
}
BENCHMARK(BM_AesBlockOnInterpreter)->Iterations(5);

static void
BM_NetlistOptimizeRiscv(benchmark::State &state)
{
    designs::CaseStudy cs =
        designs::makeRiscvSingleCycle(designs::RiscvVariant::RV32I);
    synth::SynthesisResult r =
        synth::synthesizeControl(cs.sketch, cs.spec, cs.alpha);
    if (r.status != synth::SynthStatus::Ok) {
        state.SkipWithError("synthesis failed");
        return;
    }
    for (auto _ : state) {
        netlist::Netlist nl = netlist::compile(cs.sketch);
        auto st = netlist::optimize(nl);
        benchmark::DoNotOptimize(st.gatesAfter);
    }
}
BENCHMARK(BM_NetlistOptimizeRiscv)->Iterations(3);

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    const char *stats_path = std::getenv("OWL_STATS_JSON");
    if (!stats_path)
        stats_path = "BENCH_micro_obs.json";
    if (obs::Registry::instance().writeJsonFile(
            stats_path, {{"tool", "bench_micro"}})) {
        fprintf(stderr, "[bench_micro] wrote stats to %s\n",
                stats_path);
    }
    return 0;
}
