/**
 * @file
 * Tests for the netlist backend (Table 2 substrate): compilation of
 * Oyster designs to gates, the optimizer's rewrites, and differential
 * simulation — netlists (optimized and not) must behave exactly like
 * the Oyster interpreter on random designs and stimulus.
 */

#include <gtest/gtest.h>

#include <random>

#include "netlist/compile.h"
#include "netlist/optimize.h"
#include "netlist/sim.h"
#include "core/synthesis.h"
#include "designs/riscv_single_cycle.h"
#include "oyster/interp.h"
#include "rv/encode.h"

using namespace owl;
using namespace owl::oyster;
using namespace owl::netlist;

namespace
{

Design
makeAdderDesign()
{
    Design d("adder");
    d.addInput("a", 8);
    d.addInput("b", 8);
    d.addOutput("sum", 8);
    d.assign("sum", d.opAdd(d.var("a"), d.var("b")));
    return d;
}

} // namespace

TEST(NetlistCompile, AdderGateCount)
{
    Design d = makeAdderDesign();
    Netlist nl = compile(d);
    // Ripple-carry: ~5 gates/bit plus constants.
    EXPECT_GT(nl.gateCount(), 20);
    EXPECT_LT(nl.gateCount(), 60);
    EXPECT_EQ(nl.inputs.at("a").size(), 8u);
    EXPECT_EQ(nl.outputs.at("sum").size(), 8u);
}

TEST(NetlistCompile, DeepExpressionChainCompiles)
{
    // Designs built in C++ have no parser depth cap: compilation (and
    // the lint pass in front of it) must not recurse per level.
    constexpr int kDepth = 100000;
    Design d("deep");
    d.addInput("a", 1);
    d.addOutput("q", 1);
    ExprRef e = d.var("a");
    for (int i = 0; i < kDepth; i++)
        e = d.opNot(e);
    d.assign("q", e);
    Netlist nl = compile(d);
    EXPECT_EQ(nl.gateCount(), kDepth); // one Not per level
    NetlistSim sim(nl);
    for (uint64_t a : {0u, 1u}) {
        sim.step({{"a", BitVec(1, a)}});
        EXPECT_EQ(sim.output("q").toUint64(), a); // an even chain
    }
}

TEST(NetlistCompile, AdderSimulates)
{
    Design d = makeAdderDesign();
    Netlist nl = compile(d);
    NetlistSim sim(nl);
    std::mt19937 rng(5);
    for (int i = 0; i < 100; i++) {
        uint64_t a = rng() & 0xff, b = rng() & 0xff;
        sim.step({{"a", BitVec(8, a)}, {"b", BitVec(8, b)}});
        EXPECT_EQ(sim.output("sum").toUint64(), (a + b) & 0xff);
    }
}

TEST(NetlistOptimize, FoldsConstantsAndCse)
{
    Design d("redundant");
    d.addInput("x", 8);
    d.addOutput("o", 8);
    // (x & 0xff) | (x ^ 0) duplicated: collapses to x after rewrites.
    ExprRef x = d.var("x");
    ExprRef e1 = d.opAnd(x, d.lit(8, 0xff));
    ExprRef e2 = d.opXor(d.var("x"), d.lit(8, 0));
    d.assign("o", d.opOr(d.opOr(e1, e2), d.opAnd(x, d.lit(8, 0))));
    Netlist nl = compile(d);
    int before = nl.gateCount();
    OptStats st = optimize(nl);
    EXPECT_LT(nl.gateCount(), before);
    EXPECT_EQ(st.gatesAfter, nl.gateCount());
    // o == x: zero logic gates needed.
    EXPECT_EQ(nl.gateCount(), 0);
    NetlistSim sim(nl);
    sim.step({{"x", BitVec(8, 0xa7)}});
    EXPECT_EQ(sim.output("o").toUint64(), 0xa7u);
}

TEST(NetlistOptimize, PreservesRegistersAndMemories)
{
    Design d("counter");
    d.addInput("en", 1);
    d.addRegister("count", 8, BitVec(8, 3));
    d.addMemory("m", 4, 8);
    d.addOutput("out", 8);
    d.assign("count",
             d.opIte(d.var("en"), d.opAdd(d.var("count"), d.lit(8, 1)),
                     d.var("count")));
    d.assign("out", d.var("count"));
    d.memWrite("m", d.lit(4, 2), d.var("count"), d.var("en"));
    Netlist nl = compile(d);
    optimize(nl);

    NetlistSim sim(nl);
    Interpreter ref(d);
    EXPECT_EQ(sim.reg("count").toUint64(), 3u);
    for (int i = 0; i < 10; i++) {
        BitVec en(1, i % 3 != 0);
        sim.step({{"en", en}});
        ref.step({{"en", en}});
        ASSERT_EQ(sim.reg("count").toUint64(),
                  ref.reg("count").toUint64());
        ASSERT_EQ(sim.memWord("m", 2, 8).toUint64(),
                  ref.memWord("m", 2).toUint64());
    }
}

namespace
{

Design
randomNetlistDesign(std::mt19937 &rng)
{
    Design d("rnd");
    d.addInput("i0", 8);
    d.addInput("i1", 8);
    d.addRegister("r", 8, BitVec(8, rng() & 0xff));
    std::vector<std::string> avail = {"i0", "i1", "r"};
    for (int w = 0; w < 8; w++) {
        std::string name = "w" + std::to_string(w);
        d.addWire(name, 8);
        ExprRef a = d.var(avail[rng() % avail.size()]);
        ExprRef b = d.var(avail[rng() % avail.size()]);
        ExprRef e;
        switch (rng() % 10) {
          case 0: e = d.opAdd(a, b); break;
          case 1: e = d.opSub(a, b); break;
          case 2: e = d.opAnd(a, b); break;
          case 3: e = d.opOr(a, b); break;
          case 4: e = d.opXor(a, b); break;
          case 5: e = d.opIte(d.opUlt(a, b), a, b); break;
          case 6: e = d.opShl(a, d.opExtract(b, 2, 0)); break;
          case 7: e = d.opRor(a, d.opExtract(b, 2, 0)); break;
          case 8: e = d.opMul(a, b); break;
          default:
            e = d.opIte(d.opEq(a, b), d.opNot(a), d.opNeg(b));
            break;
        }
        d.assign(name, e);
        avail.push_back(name);
    }
    d.addOutput("out", 8);
    d.assign("out", d.var(avail.back()));
    d.assign("r", d.var(avail[3 + rng() % 8]));
    return d;
}

} // namespace

class NetlistDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(NetlistDifferential, CompiledAndOptimizedMatchInterpreter)
{
    std::mt19937 rng(GetParam());
    for (int round = 0; round < 5; round++) {
        Design d = randomNetlistDesign(rng);
        Netlist raw = compile(d);
        Netlist opt = compile(d);
        optimize(opt);
        EXPECT_LE(opt.gateCount(), raw.gateCount());

        Interpreter ref(d);
        NetlistSim s_raw(raw), s_opt(opt);
        for (int t = 0; t < 8; t++) {
            std::map<std::string, BitVec> in{
                {"i0", BitVec(8, rng() & 0xff)},
                {"i1", BitVec(8, rng() & 0xff)}};
            ref.step({in.begin(), in.end()});
            s_raw.step(in);
            s_opt.step(in);
            ASSERT_EQ(s_raw.output("out").toUint64(),
                      ref.lastValue("out").toUint64())
                << "raw netlist diverged";
            ASSERT_EQ(s_opt.output("out").toUint64(),
                      ref.lastValue("out").toUint64())
                << "optimized netlist diverged";
            ASSERT_EQ(s_opt.reg("r").toUint64(),
                      ref.reg("r").toUint64());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetlistDifferential,
                         ::testing::Range(200, 208));

TEST(NetlistIntegration, SynthesizedRiscvCoreGateLevelEquivalence)
{
    // The flagship integration check for the Table 2 substrate: the
    // completed single-cycle RV32I core, compiled to gates and
    // optimized, must execute a real program exactly like the Oyster
    // interpreter.
    using namespace owl::designs;
    using namespace owl::synth;
    CaseStudy cs = makeRiscvSingleCycle(RiscvVariant::RV32I);
    ASSERT_EQ(synthesizeControl(cs.sketch, cs.spec, cs.alpha).status,
              SynthStatus::Ok);
    Netlist nl = compile(cs.sketch);
    OptStats st = optimize(nl);
    EXPECT_LT(st.gatesAfter, st.gatesBefore);

    // Sum 1..10 with a BNE loop, store, reload (the test_riscv
    // program), plus some logic ops.
    using namespace owl::rv;
    std::vector<uint32_t> prog = {
        ADDI(1, 0, 10), ADDI(3, 0, 0),  ADD(3, 3, 1),
        ADDI(1, 1, -1), BNE(1, 0, -8),  SW(3, 0, 0x40),
        LW(4, 0, 0x40), XORI(5, 4, 0x2a), JAL(0, 0),
    };
    Interpreter ref(cs.sketch);
    NetlistSim sim(nl);
    for (size_t i = 0; i < prog.size(); i++) {
        ref.setMemWord("i_mem", i, BitVec(32, prog[i]));
        sim.setMemWord("i_mem", i, BitVec(32, prog[i]));
    }
    for (int cycle = 0; cycle < 40; cycle++) {
        ref.step();
        sim.step();
        ASSERT_EQ(sim.reg("pc").toUint64(), ref.reg("pc").toUint64())
            << "pc diverged at cycle " << cycle;
    }
    for (int r = 0; r < 8; r++) {
        ASSERT_EQ(sim.memWord("rf", r, 32).toUint64(),
                  ref.memWord("rf", r).toUint64())
            << "x" << r;
    }
    EXPECT_EQ(sim.memWord("rf", 3, 32).toUint64(), 55u);
    EXPECT_EQ(sim.memWord("rf", 5, 32).toUint64(), 55u ^ 0x2au);
    EXPECT_EQ(sim.memWord("d_mem", 0x40 >> 2, 32).toUint64(), 55u);
}
