/**
 * @file
 * Tests for owl::serve — the long-lived synthesis service: the
 * content-addressed result cache (accounting, LRU eviction,
 * cached-vs-fresh bit-identity), design/instruction fingerprints, the
 * warm session pool, the JSON request/result wire format, per-request
 * budgets, concurrent batch behavior (the TSan target), and the
 * NDJSON unix-socket front end and its request-line cap.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/synthesis.h"
#include "designs/registry.h"
#include "fuzz/generate.h"
#include "ila/ila.h"
#include "obs/obs.h"
#include "oyster/printer.h"
#include "serve/cache.h"
#include "serve/fingerprint.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/session_pool.h"
#include "serve/socket.h"

using namespace owl;
using namespace owl::serve;

namespace
{

synth::HoleValues
holes(std::initializer_list<std::pair<const char *, uint64_t>> vals)
{
    synth::HoleValues hv;
    for (const auto &[name, v] : vals)
        hv[name] = BitVec(8, v);
    return hv;
}

/** Holes as a printable map so mismatches show full assignments. */
std::string
holesString(const synth::PerInstrResults &results)
{
    std::string out;
    for (const auto &[instr, hv] : results) {
        out += instr + ":";
        for (const auto &[name, value] : hv)
            out += " " + name + "=" + value.toString();
        out += "\n";
    }
    return out;
}

JobRequest
job(const std::string &design)
{
    JobRequest r;
    r.design = design;
    return r;
}

} // namespace

// ---- result cache ------------------------------------------------------

TEST(ServeCache, HitMissAccounting)
{
    ResultCache cache;
    EXPECT_FALSE(cache.lookup("k1").has_value());
    cache.insert("k1", holes({{"a", 3}}));
    auto hit = cache.lookup("k1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ((*hit)["a"], BitVec(8, 3));

    CacheStats st = cache.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.insertions, 1u);
    EXPECT_EQ(st.evictions, 0u);
    EXPECT_EQ(st.entries, 1u);
    EXPECT_GT(st.bytes, 0u);
}

TEST(ServeCache, ReinsertReplacesEntry)
{
    ResultCache cache;
    cache.insert("k", holes({{"a", 1}}));
    cache.insert("k", holes({{"a", 2}}));
    EXPECT_EQ(cache.stats().entries, 1u);
    auto hit = cache.lookup("k");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ((*hit)["a"], BitVec(8, 2));
}

TEST(ServeCache, EvictsLeastRecentlyUsedUnderByteCap)
{
    // Entries are ~100 bytes each; cap to roughly two of them.
    ResultCache cache(220);
    cache.insert("k1", holes({{"a", 1}}));
    cache.insert("k2", holes({{"a", 2}}));
    // Touch k1 so k2 is the LRU victim when k3 arrives.
    EXPECT_TRUE(cache.lookup("k1").has_value());
    cache.insert("k3", holes({{"a", 3}}));

    CacheStats st = cache.stats();
    EXPECT_GE(st.evictions, 1u);
    EXPECT_LE(st.bytes, cache.maxBytes());
    EXPECT_TRUE(cache.lookup("k1").has_value());
    EXPECT_FALSE(cache.lookup("k2").has_value());
    EXPECT_TRUE(cache.lookup("k3").has_value());
}

TEST(ServeCache, NeverEvictsDownToEmpty)
{
    // A cap smaller than any one entry still keeps the newest entry:
    // a cache that evicted everything would never serve a hit.
    ResultCache cache(1);
    cache.insert("k1", holes({{"a", 1}}));
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_TRUE(cache.lookup("k1").has_value());
}

// ---- fingerprints ------------------------------------------------------

TEST(ServeFingerprint, StableAcrossRebuilds)
{
    auto a = designs::makeCaseStudy("accumulator");
    auto b = designs::makeCaseStudy("accumulator");
    ASSERT_TRUE(a && b);
    EXPECT_EQ(designFingerprint(a->sketch, a->spec, a->alpha),
              designFingerprint(b->sketch, b->spec, b->alpha));
    for (const auto &instr : a->spec.instrs())
        EXPECT_EQ(instrFingerprint(a->spec, *instr),
                  instrFingerprint(b->spec,
                                   b->spec.instr(instr->name())));
}

TEST(ServeFingerprint, SharedMemoKeepsInstructionKeys)
{
    // A request fingerprints all its instructions through one memo;
    // the keys (and the serve cache bytes built on them) must be those
    // of one fresh hasher per instruction, whatever order the shared
    // memo fills in.
    for (const std::string &name : designs::caseStudyNames()) {
        SCOPED_TRACE(name);
        auto cs = designs::makeCaseStudy(name);
        ASSERT_TRUE(cs);
        const auto &instrs = cs->spec.instrs();
        InstrFingerprinter forward(cs->spec);
        InstrFingerprinter backward(cs->spec);
        std::vector<uint64_t> back(instrs.size());
        for (size_t i = instrs.size(); i-- > 0;)
            back[i] = backward(*instrs[i]);
        for (size_t i = 0; i < instrs.size(); i++) {
            uint64_t one_shot = instrFingerprint(cs->spec, *instrs[i]);
            EXPECT_EQ(forward(*instrs[i]), one_shot) << instrs[i]->name();
            EXPECT_EQ(back[i], one_shot) << instrs[i]->name();
        }
    }
}

namespace
{

using oyster::Decl;
using oyster::DeclKind;
using oyster::Design;
using oyster::ExOp;
using oyster::Expr;
using oyster::ExprRef;
using oyster::Stmt;

/** The single edits SketchKeyMatchesPrintedText makes to a sketch. */
enum class SketchEdit
{
    None,
    ConstBit,     ///< flip bit 0 of the first constant
    SwapOperands, ///< swap the operands of the first same-width binop
    ZextWidth,    ///< widen the probe's zext by one bit
    DeclWidth,    ///< widen the spare wire by one bit
    ResetValue,   ///< flip bit 0 of the first register's reset value
    RomWord,      ///< flip bit 0 of the first ROM's first word
    HoleDep,      ///< rename the last dep of the first hole with deps
    AddStmt,      ///< assign the spare wire
    Generated,    ///< flip every statement's `generated` flag
};

const char *
editName(SketchEdit e)
{
    static const char *names[] = {
        "none",        "const-bit",   "swap-operands", "zext-width",
        "decl-width",  "reset-value", "rom-word",      "hole-dep",
        "add-stmt",    "generated"};
    return names[static_cast<int>(e)];
}

BitVec
flipBit0(BitVec v)
{
    v.setBit(0, !v.getBit(0));
    return v;
}

/** Binary operators whose two operands have equal widths. */
bool
swappable(const Design &d, const Expr &e)
{
    switch (e.op) {
      case ExOp::And: case ExOp::Or: case ExOp::Xor: case ExOp::Add:
      case ExOp::Sub: case ExOp::Mul: case ExOp::Clmul:
      case ExOp::Clmulh: case ExOp::Eq: case ExOp::Ne: case ExOp::Ult:
      case ExOp::Ule: case ExOp::Slt: case ExOp::Sle:
        return e.kids[0].idx != e.kids[1].idx &&
               d.exprWidth(e.kids[0]) == d.exprWidth(e.kids[1]);
      default:
        return false;
    }
}

/** Node `e` rebuilt in `out` over the copied kids `k`. */
ExprRef
remake(Design &out, const Expr &e, std::vector<ExprRef> k)
{
    using Binop = ExprRef (Design::*)(ExprRef, ExprRef);
    static const std::map<ExOp, Binop> binops = {
        {ExOp::And, &Design::opAnd},       {ExOp::Or, &Design::opOr},
        {ExOp::Xor, &Design::opXor},       {ExOp::Add, &Design::opAdd},
        {ExOp::Sub, &Design::opSub},       {ExOp::Mul, &Design::opMul},
        {ExOp::Clmul, &Design::opClmul},   {ExOp::Clmulh, &Design::opClmulh},
        {ExOp::Eq, &Design::opEq},         {ExOp::Ne, &Design::opNe},
        {ExOp::Ult, &Design::opUlt},       {ExOp::Ule, &Design::opUle},
        {ExOp::Slt, &Design::opSlt},       {ExOp::Sle, &Design::opSle},
        {ExOp::Concat, &Design::opConcat}, {ExOp::Shl, &Design::opShl},
        {ExOp::Lshr, &Design::opLshr},     {ExOp::Ashr, &Design::opAshr},
        {ExOp::Rol, &Design::opRol},       {ExOp::Ror, &Design::opRor},
    };
    if (auto it = binops.find(e.op); it != binops.end())
        return (out.*it->second)(k[0], k[1]);
    switch (e.op) {
      case ExOp::Var: return out.var(e.name);
      case ExOp::Const: return out.lit(e.cval);
      case ExOp::Not: return out.opNot(k[0]);
      case ExOp::Neg: return out.opNeg(k[0]);
      case ExOp::Ite: return out.opIte(k[0], k[1], k[2]);
      case ExOp::Extract: return out.opExtract(k[0], e.a, e.b);
      case ExOp::ZExt: return out.opZExt(k[0], e.width);
      case ExOp::SExt: return out.opSExt(k[0], e.width);
      case ExOp::Read: return out.opRead(e.name, k[0]);
      default: ADD_FAILURE() << "unhandled op"; return k[0];
    }
}

/**
 * `d` rebuilt through the builder API with `edit` made at its first
 * site. With `share` off every use of a subexpression is a fresh copy,
 * so the result is the tree the printer writes. Every rebuild also
 * declares two wires as sites for the width edits: a probe assigned
 * `zext(1'h1, 8)[3:0]` and a spare left unassigned.
 */
Design
rebuild(const Design &d, SketchEdit edit, bool share = true)
{
    Design out(d.name());
    bool reset_done = false, rom_done = false, dep_done = false;
    for (const Decl &dc : d.decls()) {
        switch (dc.kind) {
          case DeclKind::Input: out.addInput(dc.name, dc.width); break;
          case DeclKind::Output: out.addOutput(dc.name, dc.width); break;
          case DeclKind::Wire: out.addWire(dc.name, dc.width); break;
          case DeclKind::Memory:
            out.addMemory(dc.name, dc.addrWidth, dc.width);
            break;
          case DeclKind::Register: {
            bool here = edit == SketchEdit::ResetValue && !reset_done;
            reset_done |= here;
            out.addRegister(dc.name, dc.width,
                            here ? flipBit0(dc.resetValue)
                                 : dc.resetValue);
            break;
          }
          case DeclKind::Rom: {
            std::vector<BitVec> words = dc.romContents;
            if (edit == SketchEdit::RomWord && !rom_done &&
                !words.empty()) {
                words[0] = flipBit0(words[0]);
                rom_done = true;
            }
            out.addRom(dc.name, dc.addrWidth, dc.width, words);
            break;
          }
          case DeclKind::Hole: {
            std::vector<std::string> deps = dc.holeDeps;
            if (edit == SketchEdit::HoleDep && !dep_done &&
                !deps.empty()) {
                deps.back() = "owl_fp_probe";
                dep_done = true;
            }
            out.addHole(dc.name, dc.width, deps);
            break;
          }
        }
    }
    out.addWire("owl_fp_probe", 4);
    out.addWire("owl_fp_spare", edit == SketchEdit::DeclWidth ? 9 : 8);

    std::vector<ExprRef> memo(d.exprCount());
    int32_t site = -1;
    std::function<ExprRef(ExprRef)> copy = [&](ExprRef r) {
        if (share && memo[r.idx].valid())
            return memo[r.idx];
        const Expr &e = d.expr(r);
        std::vector<ExprRef> k;
        for (ExprRef kid : e.kids)
            k.push_back(copy(kid));
        if (site < 0 &&
            ((edit == SketchEdit::ConstBit && e.op == ExOp::Const) ||
             (edit == SketchEdit::SwapOperands && swappable(d, e))))
            site = r.idx;
        ExprRef c;
        if (site == r.idx && edit == SketchEdit::ConstBit) {
            c = out.lit(flipBit0(e.cval));
        } else {
            if (site == r.idx)
                std::swap(k[0], k[1]);
            c = remake(out, e, std::move(k));
        }
        if (share)
            memo[r.idx] = c;
        return c;
    };
    for (const Stmt &s : d.stmts()) {
        bool gen = s.generated != (edit == SketchEdit::Generated);
        if (s.kind == Stmt::Assign) {
            out.assign(s.target, copy(s.value), gen);
        } else {
            ExprRef addr = copy(s.addr);
            ExprRef data = copy(s.data);
            out.memWrite(s.mem, addr, data, copy(s.enable), gen);
        }
    }
    int zext = edit == SketchEdit::ZextWidth ? 9 : 8;
    out.assign("owl_fp_probe",
               out.opExtract(out.opZExt(out.lit(1, 1), zext), 3, 0));
    if (edit == SketchEdit::AddStmt)
        out.assign("owl_fp_spare", out.lit(8, 0));
    return out;
}

} // namespace

TEST(ServeFingerprint, SketchKeyMatchesPrintedText)
{
    // The sketch key must tell sketches apart exactly as their printed
    // text does: a shared DAG and its unfolded tree print alike and
    // must hash alike; each single edit below changes the key exactly
    // when it changes the text (the `generated` flag is not printed).
    std::vector<std::pair<std::string, Design>> inputs;
    for (const std::string &name : designs::caseStudyNames()) {
        auto a = designs::makeCaseStudy(name);
        auto b = designs::makeCaseStudy(name);
        ASSERT_TRUE(a && b) << name;
        EXPECT_EQ(designFingerprint(a->sketch, a->spec, a->alpha),
                  designFingerprint(b->sketch, b->spec, b->alpha))
            << name;
        inputs.emplace_back(name, std::move(a->sketch));
    }
    for (uint64_t seed = 1; seed <= 200; seed++) {
        text::Bundle a = fuzz::generateBundle(seed);
        text::Bundle b = fuzz::generateBundle(seed);
        ASSERT_TRUE(a.design && b.design) << seed;
        EXPECT_EQ(sketchFingerprint(*a.design),
                  sketchFingerprint(*b.design))
            << "seed " << seed;
        inputs.emplace_back("seed " + std::to_string(seed),
                            std::move(*a.design));
    }

    std::map<SketchEdit, int> changed;
    for (const auto &[name, d] : inputs) {
        SCOPED_TRACE(name);
        Design base = rebuild(d, SketchEdit::None);
        std::string text = oyster::printOyster(base);
        uint64_t key = sketchFingerprint(base);
        Design tree = rebuild(d, SketchEdit::None, /*share=*/false);
        EXPECT_EQ(oyster::printOyster(tree), text);
        EXPECT_EQ(sketchFingerprint(tree), key);
        for (int i = 1; i <= static_cast<int>(SketchEdit::Generated);
             i++) {
            auto edit = static_cast<SketchEdit>(i);
            Design edited = rebuild(d, edit);
            bool same_text = oyster::printOyster(edited) == text;
            EXPECT_EQ(sketchFingerprint(edited) == key, same_text)
                << editName(edit);
            changed[edit] += same_text ? 0 : 1;
        }
    }
    // Every printed edit found a site somewhere; the flag never shows.
    for (int i = 1; i <= static_cast<int>(SketchEdit::Generated); i++) {
        auto edit = static_cast<SketchEdit>(i);
        if (edit == SketchEdit::Generated)
            EXPECT_EQ(changed[edit], 0);
        else
            EXPECT_GT(changed[edit], 0) << editName(edit);
    }
}

TEST(ServeFingerprint, LinearInTheDag)
{
    // x := e64 with e_{i+1} = e_i + e_i: 65 nodes whose printed form
    // would be 2^64 terms long. A walk that unfolds the DAG never ends.
    auto doubling = [](int levels) {
        Design d("doubling");
        d.addInput("a", 8);
        d.addOutput("x", 8);
        ExprRef e = d.var("a");
        for (int i = 0; i < levels; i++)
            e = d.opAdd(e, e);
        d.assign("x", e);
        return sketchFingerprint(d);
    };
    EXPECT_EQ(doubling(64), doubling(64));
    EXPECT_NE(doubling(64), doubling(63));

    // A builder-made chain 100k levels deep hashes without recursing
    // per level (the deep fingerprint sanitizer entries run this).
    auto chain = [](int levels) {
        Design d("deep");
        d.addInput("a", 1);
        d.addOutput("q", 1);
        ExprRef e = d.var("a");
        for (int i = 0; i < levels; i++)
            e = d.opNot(e);
        d.assign("q", e);
        return sketchFingerprint(d);
    };
    EXPECT_EQ(chain(100000), chain(100000));
    EXPECT_NE(chain(100000), chain(100001));
}

TEST(ServeFingerprint, DeepIlaUpdateHashesWithoutRecursing)
{
    auto chain = [](int levels) {
        ila::Ila m("deep");
        ila::IlaExpr x = m.NewBvState("x", 8);
        ila::IlaExpr e = x;
        for (int i = 0; i < levels; i++)
            e = !e;
        ila::Instr &flip = m.NewInstr("flip");
        flip.SetDecode(x == x);
        flip.SetUpdate(x, e);
        return instrFingerprint(m, flip);
    };
    EXPECT_EQ(chain(100000), chain(100000));
    EXPECT_NE(chain(100000), chain(100001));
}

TEST(ServeFingerprint, DistinguishesDesignsAndInstructions)
{
    auto acc = designs::makeCaseStudy("accumulator");
    auto alu = designs::makeCaseStudy("alu-machine");
    ASSERT_TRUE(acc && alu);
    EXPECT_NE(designFingerprint(acc->sketch, acc->spec, acc->alpha),
              designFingerprint(alu->sketch, alu->spec, alu->alpha));

    std::set<uint64_t> fps;
    for (const auto &instr : acc->spec.instrs())
        fps.insert(instrFingerprint(acc->spec, *instr));
    EXPECT_EQ(fps.size(), acc->spec.instrs().size());

    std::set<std::string> keys;
    uint64_t dfp =
        designFingerprint(acc->sketch, acc->spec, acc->alpha);
    for (const auto &instr : acc->spec.instrs())
        keys.insert(cacheKey(dfp, instrFingerprint(acc->spec, *instr)));
    EXPECT_EQ(keys.size(), acc->spec.instrs().size());
}

// ---- request wire format -----------------------------------------------

TEST(ServeRequest, ParsesAllFields)
{
    obs::json::Value v;
    std::string err;
    ASSERT_TRUE(obs::json::Value::parse(
        R"({"id":"j1","design":"accumulator","budget_ms":1500,
            "max_iterations":9,"verify":true,"check_proofs":true,
            "preprocess":false,"eager_ackermann":true,
            "stats_json":"/tmp/x.json"})",
        v, &err))
        << err;
    JobRequest req;
    ASSERT_TRUE(parseJobRequest(v, req, err)) << err;
    EXPECT_EQ(req.id, "j1");
    EXPECT_EQ(req.design, "accumulator");
    EXPECT_EQ(req.budgetMs, 1500);
    EXPECT_EQ(req.maxIterations, 9);
    EXPECT_TRUE(req.verify);
    EXPECT_TRUE(req.solver.checkProofs);
    EXPECT_FALSE(req.solver.preprocess);
    EXPECT_TRUE(req.solver.eagerAckermann);
    EXPECT_EQ(req.statsJson, "/tmp/x.json");
}

TEST(ServeRequest, RejectsMalformedJobs)
{
    const char *bad[] = {
        R"({"design":"acc","typo_field":1})", // unknown field
        R"({"id":"x"})",                      // missing design
        R"({"design":42})",                   // wrong type
        R"({"design":"acc","budget_ms":-5})", // negative budget
        R"({"design":"acc","max_iterations":0})",
        R"([1,2,3])",                         // not an object
    };
    for (const char *text : bad) {
        obs::json::Value v;
        std::string err;
        ASSERT_TRUE(obs::json::Value::parse(text, v, &err)) << text;
        JobRequest req;
        EXPECT_FALSE(parseJobRequest(v, req, err)) << text;
        EXPECT_FALSE(err.empty());
    }
    // Beyond INT_MAX must not wrap (4294967297 would become 1).
    for (const char *text :
         {R"({"design":"acc","max_iterations":2147483648})",
          R"({"design":"acc","max_iterations":4294967297})"}) {
        obs::json::Value v;
        std::string err;
        ASSERT_TRUE(obs::json::Value::parse(text, v, &err)) << text;
        JobRequest req;
        EXPECT_FALSE(parseJobRequest(v, req, err)) << text;
        EXPECT_EQ(err, "\"max_iterations\" must be a positive integer");
        EXPECT_EQ(req.maxIterations, 64) << text;
    }
}

TEST(ServeRequest, ParsesJobsFileBothShapes)
{
    std::vector<JobRequest> jobs;
    std::string err;
    ASSERT_TRUE(parseJobsFile(
        R"({"jobs":[{"design":"a"},{"design":"b","id":"x"}]})", jobs,
        err))
        << err;
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[1].id, "x");

    jobs.clear();
    ASSERT_TRUE(parseJobsFile(R"([{"design":"a"}])", jobs, err))
        << err;
    EXPECT_EQ(jobs.size(), 1u);

    jobs.clear();
    EXPECT_FALSE(parseJobsFile(
        R"({"jobs":[{"design":"a"},{"nope":1}]})", jobs, err));
    EXPECT_NE(err.find("job 1"), std::string::npos) << err;
}

TEST(ServeRequest, ResultRoundTripsThroughJson)
{
    JobResult r;
    r.id = "j9";
    r.design = "accumulator";
    r.status = "ok";
    r.seconds = 0.25;
    r.iterations = 7;
    r.cacheHits = 2;
    r.cacheMisses = 1;
    r.holes.emplace_back("instr_a", holes({{"h0", 0x3f}}));

    obs::json::Value v = resultToJson(r);
    EXPECT_EQ(v.find("id")->asString(), "j9");
    EXPECT_EQ(v.find("status")->asString(), "ok");
    EXPECT_EQ(v.find("cache_hits")->asInt(), 2);
    const obs::json::Value *hv = v.find("holes");
    ASSERT_NE(hv, nullptr);
    ASSERT_NE(hv->find("instr_a"), nullptr);
    EXPECT_EQ(hv->find("instr_a")->find("h0")->asString(),
              BitVec(8, 0x3f).toString());
}

// ---- warm session pool -------------------------------------------------

TEST(ServePool, ReusesParkedSessions)
{
    auto cs = designs::makeCaseStudy("accumulator");
    ASSERT_TRUE(cs);
    const designs::CaseStudyMaker *maker =
        designs::findCaseStudyMaker("accumulator");
    ASSERT_NE(maker, nullptr);
    uint64_t dfp = designFingerprint(cs->sketch, cs->spec, cs->alpha);
    std::string instr = cs->spec.instrs().front()->name();

    WarmSessionPool pool(4);
    synth::CegisOptions opts;
    {
        auto binding = pool.bind(dfp, *maker);
        auto s = binding->checkout(instr, opts);
        ASSERT_NE(s, nullptr);
        binding->checkin(std::move(s));
    }
    SessionPoolStats st = pool.stats();
    EXPECT_EQ(st.created, 1u);
    EXPECT_EQ(st.reused, 0u);
    EXPECT_EQ(st.parked, 1u);

    {
        auto binding = pool.bind(dfp, *maker);
        auto s = binding->checkout(instr, opts);
        ASSERT_NE(s, nullptr);
        binding->checkin(std::move(s));
    }
    st = pool.stats();
    EXPECT_EQ(st.created, 1u);
    EXPECT_EQ(st.reused, 1u);
    EXPECT_EQ(st.slots, 1u);
}

TEST(ServePool, RebuildsOnIncompatibleOptions)
{
    // A parked session carries the solver policy it was built with
    // (proof sink, simplification, Ackermann mode, profiler). Only an
    // identical policy may reuse it; changing any single field builds
    // a new session, which then parks under the new policy.
    auto cs = designs::makeCaseStudy("accumulator");
    ASSERT_TRUE(cs);
    const designs::CaseStudyMaker *maker =
        designs::findCaseStudyMaker("accumulator");
    uint64_t dfp = designFingerprint(cs->sketch, cs->spec, cs->alpha);
    std::string instr = cs->spec.instrs().front()->name();

    struct Case
    {
        const char *name;
        void (*change)(smt::SolverPolicy &);
        bool reuse;
    };
    const Case cases[] = {
        {"identical", [](smt::SolverPolicy &) {}, true},
        {"checkProofs",
         [](smt::SolverPolicy &p) { p.checkProofs = true; }, false},
        {"profileSat",
         [](smt::SolverPolicy &p) { p.profileSat = true; }, false},
        {"preprocess",
         [](smt::SolverPolicy &p) { p.preprocess = false; }, false},
        {"eagerAckermann",
         [](smt::SolverPolicy &p) { p.eagerAckermann = true; }, false},
    };
    for (const Case &c : cases) {
        WarmSessionPool pool(4);
        synth::CegisOptions first;
        synth::CegisOptions second;
        c.change(second.solver);
        for (const synth::CegisOptions *opts : {&first, &second, &second}) {
            auto binding = pool.bind(dfp, *maker);
            auto s = binding->checkout(instr, *opts);
            ASSERT_NE(s, nullptr) << c.name;
            binding->checkin(std::move(s));
        }
        SessionPoolStats st = pool.stats();
        EXPECT_EQ(st.created, c.reuse ? 1u : 2u) << c.name;
        EXPECT_EQ(st.reused, c.reuse ? 2u : 1u) << c.name;
        EXPECT_EQ(st.parked, 1u) << c.name;
    }
}

TEST(ServePool, EvictsColdSlotsButNeverPinnedOnes)
{
    auto acc = designs::makeCaseStudy("accumulator");
    auto alu = designs::makeCaseStudy("alu-machine");
    ASSERT_TRUE(acc && alu);
    uint64_t afp =
        designFingerprint(acc->sketch, acc->spec, acc->alpha);
    uint64_t lfp =
        designFingerprint(alu->sketch, alu->spec, alu->alpha);

    WarmSessionPool pool(1);
    auto pinned =
        pool.bind(afp, *designs::findCaseStudyMaker("accumulator"));
    {
        // Over capacity, but the accumulator slot is pinned by a live
        // binding; the pool stays at two slots until the pin drops.
        auto b =
            pool.bind(lfp, *designs::findCaseStudyMaker("alu-machine"));
        EXPECT_EQ(pool.stats().slots, 2u);
    }
    pinned.reset();
    // The next bind triggers eviction of whichever slot is cold.
    auto b =
        pool.bind(lfp, *designs::findCaseStudyMaker("alu-machine"));
    EXPECT_EQ(pool.stats().slots, 1u);
}

// ---- budgets -----------------------------------------------------------

TEST(ServeBudget, ExpiredDeadlineTimesOutEvenWithTinySolves)
{
    // Accumulator SAT calls finish far below the CDCL deadline-poll
    // stride, so only the inter-iteration budget checks can see an
    // expired deadline. A deadline in the past must yield Timeout,
    // not a completed synthesis.
    auto cs = designs::makeCaseStudy("accumulator");
    ASSERT_TRUE(cs);
    synth::CegisOptions opts;
    opts.deadline = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1);
    synth::InstrSynthesizer synth(cs->sketch, cs->spec, cs->alpha);
    synth::CegisResult r = synth.synthesize(
        *cs->spec.instrs().front(), nullptr, opts);
    EXPECT_EQ(r.status, synth::SynthStatus::Timeout);
}

TEST(ServeBudget, RequestBudgetProducesTimeoutStatus)
{
    Server server;
    JobRequest req = job("rv32i-2stage");
    req.budgetMs = 1; // expires before the first instruction finishes
    std::vector<JobResult> results = server.runBatch({req});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, "timeout");
    EXPECT_FALSE(results[0].failedInstr.empty());
}

// ---- server end-to-end -------------------------------------------------

TEST(ServeServer, SecondIdenticalJobIsAllCacheHitsAndBitIdentical)
{
    for (const char *design : {"accumulator", "rv32i-2stage"}) {
        SCOPED_TRACE(design);
        Server server;
        std::vector<JobResult> results =
            server.runBatch({job(design), job(design)});
        ASSERT_EQ(results.size(), 2u);
        ASSERT_EQ(results[0].status, "ok");
        ASSERT_EQ(results[1].status, "ok");

        size_t n_instr = results[0].holes.size();
        EXPECT_GT(n_instr, 0u);
        EXPECT_EQ(results[0].cacheHits, 0u);
        EXPECT_EQ(results[0].cacheMisses, n_instr);
        EXPECT_EQ(results[1].cacheHits, n_instr);
        EXPECT_EQ(results[1].cacheMisses, 0u);
        EXPECT_EQ(results[1].iterations, 0);

        EXPECT_EQ(holesString(results[0].holes),
                  holesString(results[1].holes));

        // And the cached result matches a from-scratch library run.
        auto cs = designs::makeCaseStudy(design);
        synth::SynthesisResult fresh = synth::synthesizeControl(
            cs->sketch, cs->spec, cs->alpha, {});
        ASSERT_EQ(fresh.status, synth::SynthStatus::Ok);
        EXPECT_EQ(holesString(results[1].holes),
                  holesString(fresh.perInstr));
    }
}

TEST(ServeServer, WarmSessionsKickInWhenCacheEvicts)
{
    // A cache too small to hold the design's results forces the
    // second identical job back through CEGIS — which must then ride
    // the warm session pool and still produce bit-identical holes.
    ServerOptions sopts;
    sopts.cacheBytes = 1; // keeps at most one entry
    Server server(sopts);
    std::vector<JobResult> results =
        server.runBatch({job("accumulator"), job("accumulator")});
    ASSERT_EQ(results[0].status, "ok");
    ASSERT_EQ(results[1].status, "ok");
    EXPECT_GT(results[1].cacheMisses, 0u);
    EXPECT_GT(results[1].sessionsReused, 0u);
    EXPECT_EQ(holesString(results[0].holes),
              holesString(results[1].holes));
}

TEST(ServeServer, WarmMissTakesOneIterationPerInstruction)
{
    // With the cache holding nothing, the second rv32i request misses
    // on every instruction, but each warm session's lexmin candidate
    // is already the answer: one verify per instruction, no synth
    // step, and the holes of the cold request.
    ServerOptions sopts;
    sopts.cacheBytes = 1; // keeps at most one entry
    Server server(sopts);
    std::vector<JobResult> results =
        server.runBatch({job("rv32i"), job("rv32i")});
    ASSERT_EQ(results[0].status, "ok");
    ASSERT_EQ(results[1].status, "ok");
    size_t n_instr = results[0].holes.size();
    EXPECT_GT(results[0].iterations, static_cast<int>(n_instr));
    EXPECT_EQ(results[1].cacheMisses, n_instr);
    EXPECT_EQ(results[1].sessionsReused, n_instr);
    EXPECT_EQ(results[1].iterations, static_cast<int>(n_instr));
    EXPECT_EQ(holesString(results[0].holes),
              holesString(results[1].holes));
}

TEST(ServeServer, RequestCountsDoNotNeedObs)
{
    // Each request counts its own cache and pool traffic: with
    // recording switched off the results still carry it.
    struct ObsOff
    {
        bool was = obs::enabled();
        ObsOff() { obs::setEnabled(false); }
        ~ObsOff() { obs::setEnabled(was); }
    } off;
    {
        Server server;
        std::vector<JobResult> results =
            server.runBatch({job("accumulator"), job("accumulator")});
        ASSERT_EQ(results[0].status, "ok");
        ASSERT_EQ(results[1].status, "ok");
        size_t n_instr = results[0].holes.size();
        EXPECT_EQ(results[0].cacheMisses, n_instr);
        EXPECT_EQ(results[0].sessionsCreated, n_instr);
        EXPECT_EQ(results[1].cacheHits, n_instr);
        EXPECT_EQ(results[1].sessionsCreated, 0u);
    }
    ServerOptions sopts;
    sopts.cacheBytes = 1; // keeps at most one entry
    Server server(sopts);
    std::vector<JobResult> results =
        server.runBatch({job("accumulator"), job("accumulator")});
    ASSERT_EQ(results[1].status, "ok");
    EXPECT_GT(results[1].cacheMisses, 0u);
    EXPECT_EQ(results[1].sessionsReused, results[1].cacheMisses);
}

TEST(ServeServer, BadRequestAndErrorDoNotPoisonTheSession)
{
    // One session processes a bad request between two good ones; the
    // good ones must be unaffected (fresh spans, correct accounting).
    Server server;
    std::vector<JobResult> results = server.runBatch(
        {job("accumulator"), job("no-such-design"),
         job("accumulator")});
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].status, "ok");
    EXPECT_EQ(results[1].status, "bad-request");
    EXPECT_NE(results[1].error.find("no-such-design"),
              std::string::npos);
    EXPECT_EQ(results[2].status, "ok");
    EXPECT_EQ(results[2].cacheHits, results[0].holes.size());
    EXPECT_EQ(results[0].spansAbandoned, 0u);
    EXPECT_EQ(results[2].spansAbandoned, 0u);
}

TEST(ServeServer, VerifyFlagRunsEndToEnd)
{
    Server server;
    JobRequest req = job("accumulator");
    req.verify = true;
    std::vector<JobResult> results = server.runBatch({req});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, "ok");
}

TEST(ServeServer, SubmitAfterShutdownThrows)
{
    Server server;
    server.shutdown();
    EXPECT_THROW(server.submit(job("accumulator")),
                 std::runtime_error);
    std::future<JobResult> fut;
    EXPECT_FALSE(server.trySubmit(job("accumulator"), &fut));
}

TEST(ServeServer, ConcurrentMixedBatchIsDeterministic)
{
    // The TSan target: several sessions hammer the shared cache and
    // warm pool with identical and distinct designs at once. Every
    // job must succeed and identical designs must agree bit-for-bit.
    ServerOptions sopts;
    sopts.sessions = 4;
    Server server(sopts);
    std::vector<JobRequest> jobs;
    for (int i = 0; i < 6; i++) {
        jobs.push_back(job("accumulator"));
        jobs.push_back(job("alu-machine"));
    }
    std::vector<JobResult> results = server.runBatch(std::move(jobs));
    ASSERT_EQ(results.size(), 12u);
    for (const JobResult &r : results)
        EXPECT_EQ(r.status, "ok") << r.design << ": " << r.error;
    for (size_t i = 2; i < results.size(); i += 2) {
        EXPECT_EQ(holesString(results[i].holes),
                  holesString(results[0].holes));
        EXPECT_EQ(holesString(results[i + 1].holes),
                  holesString(results[1].holes));
    }
}

// ---- socket front end --------------------------------------------------

namespace
{

/** Tiny blocking NDJSON client; empty string on connect failure. */
std::string
socketRoundTrip(const std::string &path,
                const std::vector<std::string> &lines)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    // The listener thread may not have bound yet; retry briefly.
    int rc = -1;
    for (int i = 0; i < 100 && rc != 0; i++) {
        rc = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr));
        if (rc != 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
    }
    if (rc != 0) {
        ::close(fd);
        return "";
    }
    std::string out;
    for (const std::string &line : lines) {
        std::string msg = line + "\n";
        (void)!::write(fd, msg.data(), msg.size());
        // One response line per request line, in order.
        char c;
        while (::read(fd, &c, 1) == 1) {
            out += c;
            if (c == '\n')
                break;
        }
    }
    ::close(fd);
    return out;
}

/**
 * Serve `lines` over a fresh socket with a fresh server, one
 * connection, and return the parsed response lines. Sets *skip when
 * the environment has no unix sockets.
 */
std::vector<obs::json::Value>
serveLines(const std::string &name, const std::vector<std::string> &lines,
           bool *skip)
{
    std::vector<obs::json::Value> docs;
    int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    *skip = probe < 0;
    if (*skip)
        return docs;
    ::close(probe);
    std::string path = testing::TempDir() + name;
    ::unlink(path.c_str());

    Server server;
    std::string err;
    bool listen_ok = false;
    std::thread listener([&] {
        listen_ok = serveSocket(server, path, &err);
    });
    std::string reply = socketRoundTrip(path, lines);
    listener.join();
    EXPECT_TRUE(listen_ok) << err;

    size_t pos = 0;
    while (pos < reply.size()) {
        size_t nl = reply.find('\n', pos);
        obs::json::Value v;
        std::string perr;
        EXPECT_TRUE(obs::json::Value::parse(reply.substr(pos, nl - pos),
                                            v, &perr))
            << perr;
        docs.push_back(std::move(v));
        pos = nl + 1;
    }
    return docs;
}

} // namespace

TEST(ServeSocket, NdjsonRequestsStatsAndShutdown)
{
    bool skip;
    std::vector<obs::json::Value> docs = serveLines(
        "owl_serve_test.sock",
        {R"({"design":"accumulator","id":"s1"})",
         R"({"design":"accumulator","id":"s2"})", R"({"cmd":"stats"})",
         R"({"cmd":"shutdown"})"},
        &skip);
    if (skip)
        GTEST_SKIP() << "no unix sockets";

    // Four request lines -> four response lines.
    ASSERT_EQ(docs.size(), 4u);
    EXPECT_EQ(docs[0].find("status")->asString(), "ok");
    EXPECT_EQ(docs[0].find("id")->asString(), "s1");
    EXPECT_EQ(docs[1].find("cache_hits")->asInt(),
              docs[0].find("holes")->size());
    ASSERT_NE(docs[2].find("cache"), nullptr);
    EXPECT_GT(docs[2].find("cache")->find("hits")->asInt(), 0);
    EXPECT_EQ(docs[3].find("status")->asString(), "ok");
}

TEST(ServeSocket, OversizedLineIsAnsweredAndTheConnectionKeepsServing)
{
    // One line just past the cap, then one far past it (the reader
    // drops it in pieces), then ordinary requests on the same
    // connection.
    bool skip;
    std::vector<obs::json::Value> docs = serveLines(
        "owl_serve_long.sock",
        {std::string(kMaxRequestLineBytes + 1, 'x'),
         std::string(3 * kMaxRequestLineBytes, ' '), R"({"cmd":"stats"})",
         R"({"cmd":"shutdown"})"},
        &skip);
    if (skip)
        GTEST_SKIP() << "no unix sockets";

    ASSERT_EQ(docs.size(), 4u);
    for (int i : {0, 1}) {
        EXPECT_EQ(docs[i].find("status")->asString(), "bad-request");
        EXPECT_NE(docs[i].find("error")->asString().find("line longer"),
                  std::string::npos);
    }
    EXPECT_NE(docs[2].find("cache"), nullptr);
    EXPECT_EQ(docs[3].find("status")->asString(), "ok");
}
