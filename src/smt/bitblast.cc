#include "smt/bitblast.h"

#include <algorithm>

#include "base/logging.h"

namespace owl::smt
{

using sat::Lit;

BitBlaster::BitBlaster(const TermTable &tt, sat::Solver &solver)
    : tt(tt), solver(solver)
{
    tl = Lit(solver.newVar(), false);
    solver.addClause(tl);
    outputLog.push_back(tl);
}

Lit
BitBlaster::freshLit()
{
    return Lit(solver.newVar(), false);
}

namespace
{

uint32_t
code(Lit l)
{
    return static_cast<uint32_t>(l.index());
}

/** The positive literal of l's variable. */
Lit
positive(Lit l)
{
    return Lit(l.var(), false);
}

} // namespace

BitBlaster::Gate &
BitBlaster::gateSlot(uint32_t a, uint32_t b, uint32_t c)
{
    // Grow at half load so probe runs stay short.
    if (2 * (gatesUsed + 1) > gates.size()) {
        std::vector<Gate> old(std::max<size_t>(64, 2 * gates.size()),
                              Gate{0, 0, 0, Lit()});
        old.swap(gates);
        gatesUsed = 0;
        for (const Gate &g : old) {
            if (g.out.valid() && !solver.isEliminated(g.out.var())) {
                gateSlot(g.a, g.b, g.c) = g;
                gatesUsed++;
            }
        }
    }
    uint64_t h = (uint64_t{a} * 0x9e3779b97f4a7c15ull) ^
                 (uint64_t{b} * 0xc2b2ae3d27d4eb4full) ^
                 (uint64_t{c} * 0x165667b19e3779f9ull);
    size_t mask = gates.size() - 1;
    for (size_t i = (h ^ (h >> 29)) & mask;; i = (i + 1) & mask) {
        Gate &g = gates[i];
        if (!g.out.valid() || (g.a == a && g.b == b && g.c == c))
            return g;
    }
}

Lit
BitBlaster::gate(uint32_t a, uint32_t b, uint32_t c, bool &fresh)
{
    Gate &slot = gateSlot(a, b, c);
    fresh = !slot.out.valid() || solver.isEliminated(slot.out.var());
    if (!fresh) {
        bstats.strashHits++;
        return slot.out;
    }
    if (!slot.out.valid())
        gatesUsed++;
    slot = Gate{a, b, c, freshLit()};
    bstats.gates++;
    return slot.out;
}

Lit
BitBlaster::gAnd(Lit a, Lit b)
{
    if (isFalseLit(a) || isFalseLit(b))
        return lConst(false);
    if (isTrueLit(a))
        return b;
    if (isTrueLit(b))
        return a;
    if (a == b)
        return a;
    if (a == ~b)
        return lConst(false);
    if (code(b) < code(a))
        std::swap(a, b);
    bool fresh;
    Lit out = gate(code(a), code(b), kAndTag, fresh);
    if (fresh) {
        solver.addClause(~out, a);
        solver.addClause(~out, b);
        solver.addClause(out, ~a, ~b);
    }
    return out;
}

Lit
BitBlaster::gOr(Lit a, Lit b)
{
    return ~gAnd(~a, ~b);
}

Lit
BitBlaster::gXor(Lit a, Lit b)
{
    if (isFalseLit(a))
        return b;
    if (isFalseLit(b))
        return a;
    if (isTrueLit(a))
        return ~b;
    if (isTrueLit(b))
        return ~a;
    if (a == b)
        return lConst(false);
    if (a == ~b)
        return lConst(true);
    // a ^ b == ~a ^ ~b: hash over positive inputs, parity on the edge.
    bool flip = a.negated() != b.negated();
    a = positive(a);
    b = positive(b);
    if (code(b) < code(a))
        std::swap(a, b);
    bool fresh;
    Lit out = gate(code(a), code(b), kXorTag, fresh);
    if (fresh) {
        solver.addClause(~out, a, b);
        solver.addClause(~out, ~a, ~b);
        solver.addClause(out, ~a, b);
        solver.addClause(out, a, ~b);
    }
    return flip ? ~out : out;
}

Lit
BitBlaster::gMux(Lit c, Lit t, Lit e)
{
    if (isTrueLit(c))
        return t;
    if (isFalseLit(c))
        return e;
    if (c.negated()) {
        c = ~c;
        std::swap(t, e);
    }
    if (t == e)
        return t;
    if (t == ~e)
        return ~gXor(c, t);
    if (isTrueLit(t) || t == c)
        return gOr(c, e);
    if (isFalseLit(t) || t == ~c)
        return gAnd(~c, e);
    if (isTrueLit(e) || e == ~c)
        return gOr(~c, t);
    if (isFalseLit(e) || e == c)
        return gAnd(c, t);
    // c ? t : e == ~(c ? ~t : ~e): hash with t positive.
    bool flip = t.negated();
    if (flip) {
        t = ~t;
        e = ~e;
    }
    bool fresh;
    Lit out = gate(code(c), code(t), code(e), fresh);
    if (fresh) {
        solver.addClause(~c, ~t, out);
        solver.addClause(~c, t, ~out);
        solver.addClause(c, ~e, out);
        solver.addClause(c, e, ~out);
        solver.addClause(~t, ~e, out);
        solver.addClause(t, e, ~out);
    }
    return flip ? ~out : out;
}

Lit
BitBlaster::gIte(Lit c, Lit t, Lit e)
{
    // Term-level ite stays two hashed ANDs under an OR rather than
    // the native mux. Measured on the golden serve-batch run
    // (`serve --batch tools/serve_smoke_jobs.json` in
    // tests/stats_golden.json): the native encoding here raised
    // conflicts from 208 to 326, while this split, with the native
    // mux kept to shifters and table lookups (gMux), gives 183. The
    // split is deliberate.
    if (isTrueLit(c))
        return t;
    if (isFalseLit(c))
        return e;
    if (t == e)
        return t;
    return gOr(gAnd(c, t), gAnd(~c, e));
}

Lit
BitBlaster::gFullAdder(Lit a, Lit b, Lit cin, Lit &cout)
{
    Lit sum = gXor(gXor(a, b), cin);
    cout = gOr(gAnd(a, b), gAnd(cin, gXor(a, b)));
    return sum;
}

std::span<const Lit>
BitBlaster::blast(TermRef t)
{
    if (isBlasted(t))
        return encoding(t);
    if (termOff.size() < tt.numNodes())
        termOff.resize(tt.numNodes(), kUnblasted);
    // Blast children iteratively to bound recursion depth on long
    // ite/write chains: explicit post-order worklist.
    std::vector<TermRef> &stack = blastStack;
    stack.assign(1, t);
    while (!stack.empty()) {
        TermRef cur = stack.back();
        if (isBlasted(cur)) {
            stack.pop_back();
            continue;
        }
        bool ready = true;
        for (TermRef c : tt.node(cur).children) {
            if (!isBlasted(c)) {
                stack.push_back(c);
                ready = false;
            }
        }
        if (!ready)
            continue;
        stack.pop_back();
        // Children's encodings are read straight out of the pool, so
        // the node is built in scratch and appended afterwards.
        blastNode(cur, nodeOut);
        owl_assert(pool.size() + nodeOut.size() < kUnblasted,
                   "blast pool overflow");
        termOff[cur.idx] = static_cast<uint32_t>(pool.size());
        pool.insert(pool.end(), nodeOut.begin(), nodeOut.end());
        nCached++;
        // Cached encodings are the only literals future clauses and
        // assumptions can mention; log them for the freeze pass.
        outputLog.insert(outputLog.end(), nodeOut.begin(), nodeOut.end());
    }
    return encoding(t);
}

void
BitBlaster::bookStats(obs::ScopedSpan &span)
{
    uint64_t gates_new = bstats.gates - booked.gates;
    uint64_t hits_new = bstats.strashHits - booked.strashHits;
    booked = bstats;
    span.attr("gates", gates_new);
    span.attr("strash_hits", hits_new);
    OWL_COUNTER_ADD("smt.bitblast.gates", gates_new);
    OWL_COUNTER_ADD("smt.bitblast.strash_hits", hits_new);
}

void
BitBlaster::assertTrue(TermRef t)
{
    owl_assert(tt.width(t) == 1, "assertTrue needs a 1-bit term");
    solver.addClause(blast(t)[0]);
}

void
BitBlaster::assertCongruence(TermRef read_a, TermRef read_b)
{
    const Node &na = tt.node(read_a);
    const Node &nb = tt.node(read_b);
    owl_assert(na.op == Op::BaseRead && nb.op == Op::BaseRead &&
                   na.a == nb.a,
               "congruence needs two reads of one memory");
    for (TermRef t : {read_a, read_b, na.children[0], nb.children[0]})
        owl_assert(isBlasted(t), "congruence over an un-blasted term");
    // Gates never touch the pool, so the four spans stay valid.
    Lit addr_eq = eqVec(encoding(na.children[0]), encoding(nb.children[0]));
    Lit val_eq = eqVec(encoding(read_a), encoding(read_b));
    solver.addClause(~addr_eq, val_eq);
}

BitVec
BitBlaster::modelValue(TermRef t) const
{
    owl_assert(isBlasted(t), "modelValue of un-blasted term");
    std::span<const Lit> lits = encoding(t);
    BitVec v(tt.width(t));
    for (int i = 0; i < tt.width(t); i++) {
        Lit l = lits[i];
        bool bit = solver.modelValue(l.var()) ^ l.negated();
        v.setBit(i, bit);
    }
    return v;
}

std::vector<Lit>
BitBlaster::addVec(std::span<const Lit> a, std::span<const Lit> b, Lit cin)
{
    std::vector<Lit> out(a.size());
    Lit carry = cin;
    for (size_t i = 0; i < a.size(); i++)
        out[i] = gFullAdder(a[i], b[i], carry, carry);
    return out;
}

std::vector<Lit>
BitBlaster::negVec(std::span<const Lit> a)
{
    std::vector<Lit> inv(a.size());
    for (size_t i = 0; i < a.size(); i++)
        inv[i] = ~a[i];
    std::vector<Lit> zero(a.size(), lConst(false));
    return addVec(inv, zero, lConst(true));
}

std::vector<Lit>
BitBlaster::mulVec(std::span<const Lit> a, std::span<const Lit> b)
{
    size_t w = a.size();
    std::vector<Lit> acc(w, lConst(false));
    for (size_t i = 0; i < w; i++) {
        // Partial product: (a << i) & b[i]
        std::vector<Lit> pp(w, lConst(false));
        for (size_t j = 0; i + j < w; j++)
            pp[i + j] = gAnd(a[j], b[i]);
        acc = addVec(acc, pp, lConst(false));
    }
    return acc;
}

Lit
BitBlaster::eqVec(std::span<const Lit> a, std::span<const Lit> b)
{
    Lit acc = lConst(true);
    for (size_t i = 0; i < a.size(); i++)
        acc = gAnd(acc, ~gXor(a[i], b[i]));
    return acc;
}

Lit
BitBlaster::ultVec(std::span<const Lit> a, std::span<const Lit> b)
{
    // lt_i = (!a_i & b_i) | ((a_i == b_i) & lt_{i-1}), msb last.
    Lit lt = lConst(false);
    for (size_t i = 0; i < a.size(); i++) {
        Lit eq = ~gXor(a[i], b[i]);
        lt = gOr(gAnd(~a[i], b[i]), gAnd(eq, lt));
    }
    return lt;
}

std::vector<Lit>
BitBlaster::shiftVec(std::span<const Lit> val, std::span<const Lit> amt,
                     bool left, bool arith)
{
    size_t w = val.size();
    Lit fill = arith ? val.back() : lConst(false);
    std::vector<Lit> cur(val.begin(), val.end());
    // Barrel shifter: stage k shifts by 2^k when amt[k] is set.
    for (size_t k = 0; k < amt.size() && (1ULL << k) < 2 * w; k++) {
        uint64_t dist = 1ULL << k;
        std::vector<Lit> shifted(w, fill);
        if (dist < w) {
            for (size_t i = 0; i < w; i++) {
                if (left) {
                    if (i >= dist)
                        shifted[i] = cur[i - dist];
                    else
                        shifted[i] = lConst(false);
                } else {
                    if (i + dist < w)
                        shifted[i] = cur[i + dist];
                    else
                        shifted[i] = fill;
                }
            }
        } else {
            // Shifting by >= w clears (or sign-fills) everything.
            if (left)
                shifted.assign(w, lConst(false));
            else
                shifted.assign(w, fill);
        }
        for (size_t i = 0; i < w; i++)
            cur[i] = gMux(amt[k], shifted[i], cur[i]);
    }
    // Any set amount bit beyond the covered stages forces the
    // all-shifted-out value.
    Lit huge = lConst(false);
    for (size_t k = 0; k < amt.size(); k++) {
        if ((1ULL << k) >= 2 * w || k >= 63)
            huge = gOr(huge, amt[k]);
    }
    if (!isFalseLit(huge)) {
        Lit out_fill = left ? lConst(false) : fill;
        for (size_t i = 0; i < w; i++)
            cur[i] = gMux(huge, out_fill, cur[i]);
    }
    return cur;
}

std::vector<Lit>
BitBlaster::lookupVec(const TableInfo &info, std::span<const Lit> idx,
                      size_t base, int bits)
{
    // Recursive mux tree over the top index bit. Entries past the end
    // of the table read as zero.
    if (base >= info.entries.size())
        return std::vector<Lit>(info.elemWidth, lConst(false));
    if (bits == 0) {
        std::vector<Lit> out(info.elemWidth);
        const BitVec &v = info.entries[base];
        for (int i = 0; i < info.elemWidth; i++)
            out[i] = lConst(v.getBit(i));
        return out;
    }
    int bit = bits - 1;
    std::vector<Lit> lo = lookupVec(info, idx, base, bit);
    std::vector<Lit> hi = lookupVec(info, idx, base + (1ULL << bit), bit);
    std::vector<Lit> out(info.elemWidth);
    for (int i = 0; i < info.elemWidth; i++)
        out[i] = gMux(idx[bit], hi[i], lo[i]);
    return out;
}

void
BitBlaster::blastNode(TermRef t, std::vector<Lit> &out)
{
    const Node &n = tt.node(t);
    auto child = [&](int i) { return encoding(n.children[i]); };
    auto copy = [&](int i) {
        std::span<const Lit> c = child(i);
        return std::vector<Lit>(c.begin(), c.end());
    };
    out.clear();
    switch (n.op) {
      case Op::Const: {
        const BitVec &v = tt.constValue(t);
        out.resize(n.width);
        for (int i = 0; i < n.width; i++)
            out[i] = lConst(v.getBit(i));
        break;
      }
      case Op::Var:
      case Op::BaseRead: {
        out.resize(n.width);
        for (int i = 0; i < n.width; i++)
            out[i] = freshLit();
        break;
      }
      case Op::Lookup: {
        const TableInfo &info = tt.tableInfo(n.a);
        out = lookupVec(info, child(0), 0, child(0).size());
        break;
      }
      case Op::Not: {
        out = copy(0);
        for (auto &l : out)
            l = ~l;
        break;
      }
      case Op::And: {
        out.resize(n.width);
        for (int i = 0; i < n.width; i++)
            out[i] = gAnd(child(0)[i], child(1)[i]);
        break;
      }
      case Op::Or: {
        out.resize(n.width);
        for (int i = 0; i < n.width; i++)
            out[i] = gOr(child(0)[i], child(1)[i]);
        break;
      }
      case Op::Xor: {
        out.resize(n.width);
        for (int i = 0; i < n.width; i++)
            out[i] = gXor(child(0)[i], child(1)[i]);
        break;
      }
      case Op::Neg:
        out = negVec(child(0));
        break;
      case Op::Add:
        out = addVec(child(0), child(1), lConst(false));
        break;
      case Op::Sub: {
        std::vector<Lit> binv = copy(1);
        for (auto &l : binv)
            l = ~l;
        out = addVec(child(0), binv, lConst(true));
        break;
      }
      case Op::Mul:
        out = mulVec(child(0), child(1));
        break;
      case Op::Clmul: {
        size_t w = n.width;
        out.assign(w, lConst(false));
        for (size_t i = 0; i < w; i++) {
            for (size_t j = 0; i + j < w; j++) {
                out[i + j] =
                    gXor(out[i + j], gAnd(child(0)[j], child(1)[i]));
            }
        }
        break;
      }
      case Op::Clmulh: {
        size_t w = n.width;
        out.assign(w, lConst(false));
        // Bit k of the high half is bit w+k of the 2w-wide product.
        for (size_t i = 0; i < w; i++) {
            for (size_t j = 0; j < w; j++) {
                size_t pos = i + j;
                if (pos >= w && pos < 2 * w) {
                    out[pos - w] = gXor(out[pos - w],
                                        gAnd(child(0)[j], child(1)[i]));
                }
            }
        }
        break;
      }
      case Op::Eq:
        out = {eqVec(child(0), child(1))};
        break;
      case Op::Ult:
        out = {ultVec(child(0), child(1))};
        break;
      case Op::Ule:
        out = {~ultVec(child(1), child(0))};
        break;
      case Op::Slt: {
        // Flip sign bits and compare unsigned.
        std::vector<Lit> a = copy(0), b = copy(1);
        a.back() = ~a.back();
        b.back() = ~b.back();
        out = {ultVec(a, b)};
        break;
      }
      case Op::Sle: {
        std::vector<Lit> a = copy(0), b = copy(1);
        a.back() = ~a.back();
        b.back() = ~b.back();
        out = {~ultVec(b, a)};
        break;
      }
      case Op::Ite: {
        Lit c = child(0)[0];
        out.resize(n.width);
        for (int i = 0; i < n.width; i++)
            out[i] = gIte(c, child(1)[i], child(2)[i]);
        break;
      }
      case Op::Extract: {
        std::span<const Lit> c0 = child(0);
        out.assign(c0.begin() + n.b, c0.begin() + n.a + 1);
        break;
      }
      case Op::Concat: {
        std::span<const Lit> hi = child(0);
        out = copy(1);
        out.insert(out.end(), hi.begin(), hi.end());
        break;
      }
      case Op::ZExt: {
        out = copy(0);
        out.resize(n.width, lConst(false));
        break;
      }
      case Op::SExt: {
        out = copy(0);
        out.resize(n.width, out.back());
        break;
      }
      case Op::Shl:
        out = shiftVec(child(0), child(1), true, false);
        break;
      case Op::Lshr:
        out = shiftVec(child(0), child(1), false, false);
        break;
      case Op::Ashr:
        out = shiftVec(child(0), child(1), false, true);
        break;
    }
    owl_assert(static_cast<int>(out.size()) == n.width,
               "blast width mismatch for ", opName(n.op));
}

} // namespace owl::smt
