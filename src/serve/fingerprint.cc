#include "serve/fingerprint.h"

#include <cstdio>
#include <unordered_map>
#include <vector>

#include "core/absfunc_parser.h"
#include "ila/expr.h"

namespace owl::serve
{

namespace
{

/**
 * Post-order walk of the expression DAG under `root` on an explicit
 * stack, not the call stack: builder-made expressions have no depth
 * cap. `kid(idx, i)` is node idx's i-th kid, or -1 past its last;
 * `hash(idx)` runs once for each node `hashed` does not yet report,
 * after all of its kids. So each node is visited once, however often
 * it is shared.
 */
template <class Kid, class Hashed, class Hash>
void
walkUnhashed(int32_t root, Kid kid, Hashed hashed, Hash hash)
{
    struct Frame
    {
        int32_t idx;
        size_t next = 0; ///< kids looked at so far
    };
    std::vector<Frame> stack;
    if (!hashed(root))
        stack.push_back({root});
    while (!stack.empty()) {
        Frame &f = stack.back();
        int32_t k = kid(f.idx, f.next);
        if (k >= 0) {
            f.next++;
            if (!hashed(k))
                stack.push_back({k});
            continue;
        }
        hash(f.idx);
        stack.pop_back();
    }
}

} // namespace

/**
 * Memoized structural hash over one IlaContext's expression pool.
 * State/input leaves hash the referenced state's *content* (name,
 * kind, widths, memconst words) rather than its registry index, so
 * fingerprints survive re-registration order changes between builds
 * of semantically identical ILAs.
 */
class ExprHasher
{
  public:
    explicit ExprHasher(const ila::IlaContext &ctx) : ctx(ctx) {}

    /** Hash of the DAG under `root`. */
    uint64_t hash(int32_t root)
    {
        walkUnhashed(
            root,
            [&](int32_t idx, size_t i) {
                const std::vector<int32_t> &kids = ctx.node(idx).kids;
                return i < kids.size() ? kids[i] : -1;
            },
            [&](int32_t idx) { return memo.count(idx) > 0; },
            [&](int32_t idx) { memo.emplace(idx, node(ctx.node(idx))); });
        return memo.at(root);
    }

    void hashState(Fnv64 &f, int state_idx) const
    {
        const ila::StateInfo &s = ctx.state(state_idx);
        f.str(s.name);
        f.u64(static_cast<uint64_t>(s.kind));
        f.i64(s.width);
        f.i64(s.addrWidth);
        f.u64(s.constContents.size());
        for (const BitVec &w : s.constContents)
            f.str(w.toHex());
    }

  private:
    const ila::IlaContext &ctx;
    std::unordered_map<int32_t, uint64_t> memo;

    /** Hash of node `n`, whose kids are all in memo. */
    uint64_t node(const ila::IlaNode &n) const
    {
        Fnv64 f;
        f.u64(static_cast<uint64_t>(n.op));
        f.i64(n.width);
        f.u64(n.isMem ? 1 : 0);
        switch (n.op) {
          case ila::IlaOp::Const:
            f.i64(n.cval.width());
            f.str(n.cval.toHex());
            break;
          case ila::IlaOp::StateVar:
          case ila::IlaOp::InputVar:
            hashState(f, n.a);
            break;
          case ila::IlaOp::Extract:
            f.i64(n.a);
            f.i64(n.b);
            break;
          default:
            break;
        }
        for (int32_t kid : n.kids)
            f.u64(memo.at(kid));
        return f.value();
    }
};

namespace
{

/**
 * Memoized structural hash over one Oyster design's expression pool,
 * one slot per pool node. A node hashes what printOyster prints for
 * it: the operator, the name of a Var or Read, the value of a Const,
 * the bounds of an Extract, the width (printed by zext/sext, implied
 * by the text everywhere else) and its kids' hashes in order. So a
 * shared subexpression and an unshared copy of it hash alike, as
 * their printed text is alike.
 */
class SketchHasher
{
  public:
    explicit SketchHasher(const oyster::Design &d)
        : d(d), memo(d.exprCount()), done(d.exprCount(), 0)
    {
    }

    /** Hash of the DAG under `root`. */
    uint64_t hash(oyster::ExprRef root)
    {
        walkUnhashed(
            root.idx,
            [&](int32_t idx, size_t i) {
                const std::vector<oyster::ExprRef> &kids =
                    d.expr({idx}).kids;
                return i < kids.size() ? kids[i].idx : -1;
            },
            [&](int32_t idx) { return done[idx] != 0; },
            [&](int32_t idx) {
                memo[idx] = node(d.expr({idx}));
                done[idx] = 1;
            });
        return memo[root.idx];
    }

  private:
    const oyster::Design &d;
    std::vector<uint64_t> memo;
    std::vector<char> done;

    /** Hash of node `e`, whose kids are all in memo. */
    uint64_t node(const oyster::Expr &e) const
    {
        Fnv64 f;
        f.u64(static_cast<uint64_t>(e.op));
        f.i64(e.width);
        switch (e.op) {
          case oyster::ExOp::Var:
          case oyster::ExOp::Read:
            f.str(e.name);
            break;
          case oyster::ExOp::Const:
            f.i64(e.cval.width());
            f.str(e.cval.toHex());
            break;
          case oyster::ExOp::Extract:
            f.i64(e.a);
            f.i64(e.b);
            break;
          default:
            break;
        }
        for (oyster::ExprRef kid : e.kids)
            f.u64(memo[kid.idx]);
        return f.value();
    }
};

/** One declaration, with exactly the fields printOyster prints. */
void
hashDecl(Fnv64 &f, const oyster::Decl &dc)
{
    using oyster::DeclKind;
    f.u64(static_cast<uint64_t>(dc.kind));
    f.str(dc.name);
    f.i64(dc.width);
    if (dc.kind == DeclKind::Memory || dc.kind == DeclKind::Rom)
        f.i64(dc.addrWidth);
    if (dc.kind == DeclKind::Register) {
        bool reset = !dc.resetValue.isZero();
        f.u64(reset ? 1 : 0);
        if (reset)
            f.str(dc.resetValue.toString());
    }
    if (dc.kind == DeclKind::Rom) {
        f.u64(dc.romContents.size());
        for (const BitVec &w : dc.romContents)
            f.str(w.toString());
    }
    if (dc.kind == DeclKind::Hole) {
        f.u64(dc.holeDeps.size());
        for (const std::string &dep : dc.holeDeps)
            f.str(dep);
    }
}

} // namespace

uint64_t
sketchFingerprint(const oyster::Design &sketch)
{
    Fnv64 f;
    f.str(sketch.name());
    f.u64(sketch.decls().size());
    for (const oyster::Decl &dc : sketch.decls())
        hashDecl(f, dc);
    SketchHasher hasher(sketch);
    f.u64(sketch.stmts().size());
    for (const oyster::Stmt &s : sketch.stmts()) {
        // `generated` is left out: the printer does not print it.
        f.u64(static_cast<uint64_t>(s.kind));
        if (s.kind == oyster::Stmt::Assign) {
            f.str(s.target);
            f.u64(hasher.hash(s.value));
        } else {
            f.str(s.mem);
            f.u64(hasher.hash(s.addr));
            f.u64(hasher.hash(s.data));
            f.u64(hasher.hash(s.enable));
        }
    }
    return f.value();
}

uint64_t
designFingerprint(const oyster::Design &sketch, const ila::Ila &spec,
                  const synth::AbsFunc &alpha)
{
    Fnv64 f;
    f.u64(sketchFingerprint(sketch));
    f.str(synth::printAbsFunc(alpha));
    f.str(spec.name());
    ExprHasher hasher(spec.ctx());
    f.u64(spec.states().size());
    for (size_t i = 0; i < spec.states().size(); i++)
        hasher.hashState(f, static_cast<int>(i));
    f.u64(spec.hasFetch() ? 1 : 0);
    if (spec.hasFetch())
        f.u64(hasher.hash(spec.fetch().idx()));
    return f.value();
}

uint64_t
instrFingerprint(const ila::Ila &spec, const ila::Instr &instr)
{
    return InstrFingerprinter(spec)(instr);
}

InstrFingerprinter::InstrFingerprinter(const ila::Ila &spec)
    : hasher(std::make_unique<ExprHasher>(spec.ctx()))
{
}

InstrFingerprinter::~InstrFingerprinter() = default;

uint64_t
InstrFingerprinter::operator()(const ila::Instr &instr)
{
    Fnv64 f;
    f.str(instr.name());
    f.u64(instr.hasDecode() ? 1 : 0);
    if (instr.hasDecode())
        f.u64(hasher->hash(instr.decode().idx()));
    f.u64(instr.updates().size());
    for (const ila::Update &u : instr.updates()) {
        Fnv64 state;
        hasher->hashState(state, u.stateIdx);
        f.u64(state.value());
        f.u64(hasher->hash(u.value.idx()));
    }
    return f.value();
}

std::string
cacheKey(uint64_t design_fp, uint64_t instr_fp)
{
    char buf[2 * 16 + 2];
    snprintf(buf, sizeof buf, "%016llx:%016llx",
             static_cast<unsigned long long>(design_fp),
             static_cast<unsigned long long>(instr_fp));
    return buf;
}

} // namespace owl::serve
