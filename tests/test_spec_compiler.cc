/**
 * @file
 * Tests for the ILA-to-constraints compiler (core/spec_compiler):
 * golden digests of the term tables it builds for the aes and
 * rv32i-2stage instructions, and a deep shared-subexpression chain
 * that only compiles in time linear in its DAG.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>

#include "core/cegis.h"
#include "core/spec_compiler.h"
#include "designs/registry.h"
#include "oyster/symeval.h"
#include "smt/term.h"

using namespace owl;
using owl::oyster::SymbolicEvaluator;
using owl::oyster::SymRun;
using owl::smt::TermRef;
using owl::smt::TermTable;
using owl::synth::InstrConditions;
using owl::synth::SpecCompiler;

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
    /** Every node of the table, in creation order. */
    void addTable(const TermTable &tt)
    {
        add(tt.numNodes());
        for (uint32_t i = 0; i < tt.numNodes(); i++) {
            const smt::Node &n = tt.node(TermRef{i});
            add(static_cast<uint64_t>(n.op));
            add(static_cast<uint64_t>(n.width));
            add(static_cast<uint64_t>(n.a));
            add(static_cast<uint64_t>(n.b));
            add(n.children.size());
            for (TermRef c : n.children)
                add(c.idx);
        }
    }
    void addConditions(const InstrConditions &c)
    {
        add(c.pre.idx);
        add(c.assumes.size());
        for (TermRef t : c.assumes)
            add(t.idx);
        add(c.posts.size());
        for (TermRef t : c.posts)
            add(t.idx);
    }
    uint64_t value() const { return h; }

  private:
    uint64_t h = 0xcbf29ce484222325ull;
};

std::string
hex(uint64_t x)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(x));
    return buf;
}

/** Symbolic run of a sketch with every hole a fresh variable. */
SymRun
symbolicRun(const designs::CaseStudy &cs, TermTable &tt)
{
    SymbolicEvaluator ev(cs.sketch, tt);
    for (const oyster::Decl &d : cs.sketch.decls()) {
        if (d.kind == oyster::DeclKind::Hole)
            ev.setHole(d.name, tt.freshVar("hole." + d.name, d.width));
    }
    synth::applyInitAliases(cs.sketch, cs.alpha, tt, ev);
    return ev.run(cs.alpha.cycles());
}

/**
 * One compiler per instruction, each over its own table (the shape of
 * the per-instruction CEGIS queries), then one compiler for every
 * instruction over a shared table (the shape of the monolithic and
 * mutual-exclusion queries).
 */
uint64_t
compileDigest(const std::string &design)
{
    std::optional<designs::CaseStudy> cs = designs::makeCaseStudy(design);
    if (!cs) {
        ADD_FAILURE() << "unknown design " << design;
        return 0;
    }
    Fingerprint fp;
    for (const auto &instr : cs->spec.instrs()) {
        TermTable tt;
        SymRun run = symbolicRun(*cs, tt);
        SpecCompiler sc(cs->spec, cs->alpha, tt, run, cs->sketch);
        fp.addConditions(sc.compileInstr(*instr));
        fp.addTable(tt);
    }
    TermTable tt;
    SymRun run = symbolicRun(*cs, tt);
    SpecCompiler sc(cs->spec, cs->alpha, tt, run, cs->sketch);
    for (const InstrConditions &c : sc.compileAll())
        fp.addConditions(c);
    fp.addTable(tt);
    return fp.value();
}

} // namespace

// Every TermRef the compiler returns and every node of the table it
// leaves behind, in creation order, pinned. Translation strategy may
// change; the terms it produces may not, because CNF variable
// numbering, models and synthesized holes all follow from them.
TEST(SpecCompiler, GoldenAes)
{
    EXPECT_EQ(hex(compileDigest("aes")), "0xd1f8a9cb456a6c1a");
}

TEST(SpecCompiler, GoldenRv32i2Stage)
{
    EXPECT_EQ(hex(compileDigest("rv32i-2stage")),
              "0xe8111c2e6ed18336");
}

// A 60-level `x = x + x` chain: 61 distinct ILA nodes, but 2^61 - 1
// root-to-leaf paths, so a translation that revisits shared
// subexpressions never finishes. Each node must be translated once.
TEST(SpecCompiler, SharedChainCompilesInLinearTime)
{
    ila::Ila spec("chain");
    ila::IlaExpr go = spec.NewBvInput("go", 1);
    ila::IlaExpr x = spec.NewBvState("x", 64);
    ila::IlaExpr y = spec.NewBvState("y", 64);
    ila::IlaExpr chain = x;
    for (int i = 0; i < 60; i++)
        chain = chain + chain;
    spec.SetFetch(chain);
    ila::Instr &dbl = spec.NewInstr("double");
    dbl.SetDecode(go);
    dbl.SetUpdate(y, chain);

    // y := x << 60 is what the chain computes modulo 2^64.
    oyster::Design sketch("chain");
    sketch.addInput("go", 1);
    sketch.addRegister("x", 64);
    sketch.addRegister("y", 64);
    sketch.assign("x", sketch.var("x"));
    sketch.assign("y", sketch.opShl(sketch.var("x"), sketch.lit(64, 60)));

    synth::AbsFunc alpha;
    using synth::Effect;
    using synth::MapType;
    alpha.map("go", "go", MapType::Input, {{Effect::Read, 1}});
    alpha.map("x", "x", MapType::Register, {{Effect::Read, 1}});
    alpha.map("y", "y", MapType::Register, {{Effect::Write, 1}});
    alpha.withCycles(1);

    TermTable tt;
    SymbolicEvaluator ev(sketch, tt);
    SymRun run = ev.run(alpha.cycles());
    SpecCompiler sc(spec, alpha, tt, run, sketch);

    // The fetch expression is the bare chain: x and 60 additions, each
    // reached a second time through its parent's other operand.
    TermRef fetch = sc.fetchTerm();
    EXPECT_EQ(sc.nodesTranslated(), 61u);
    EXPECT_EQ(sc.memoHits(), 60u);

    // The instruction adds only its decode node; the update's root is
    // already translated.
    InstrConditions c = sc.compileInstr(dbl);
    EXPECT_EQ(sc.nodesTranslated(), 62u);
    EXPECT_EQ(sc.memoHits(), 61u);
    ASSERT_EQ(c.posts.size(), 1u);

    int x_var = tt.node(run.regAt("x", 0)).a;
    int go_var = tt.node(run.inputAt("go", 1)).a;
    for (uint64_t v : {0x0ull, 0x1ull, 0x7ull, 0x123456789abcdefull,
                       0xffffffffffffffffull}) {
        smt::Assignment asg;
        asg.setVar(x_var, BitVec(64, v));
        asg.setVar(go_var, BitVec(1, 1));
        EXPECT_EQ(smt::evalTerm(tt, fetch, asg).toUint64(), v << 60)
            << std::hex << v;
        EXPECT_EQ(smt::evalTerm(tt, c.pre, asg).toUint64(), 1u);
        EXPECT_EQ(smt::evalTerm(tt, c.posts[0], asg).toUint64(), 1u)
            << std::hex << v;
    }
}
