#include "netlist/compile.h"

#include <unordered_map>
#include <vector>

#include "base/logging.h"
#include "oyster/lint.h"

namespace owl::netlist
{

using oyster::Decl;
using oyster::DeclKind;
using oyster::Design;
using oyster::ExOp;
using oyster::Expr;
using oyster::ExprRef;
using oyster::Stmt;

namespace
{

/**
 * Statement-order netlist builder. Wires map to buses as they are
 * assigned; registers pre-allocate Dff gates whose D inputs are
 * patched when their assignment is reached.
 */
class Compiler
{
  public:
    explicit Compiler(const Design &d) : d(d) {}

    Netlist
    run()
    {
        c0 = nl.addGate(GateOp::Const0);
        c1 = nl.addGate(GateOp::Const1);

        for (const Decl &dc : d.decls()) {
            if (dc.kind == DeclKind::Input) {
                Bus bus(dc.width);
                for (int i = 0; i < dc.width; i++) {
                    bus[i] = nl.addGate(GateOp::Input);
                    nl.gates[bus[i]].name =
                        dc.name + "[" + std::to_string(i) + "]";
                }
                nl.inputs[dc.name] = bus;
                env[dc.name] = bus;
            } else if (dc.kind == DeclKind::Register) {
                Bus bus(dc.width);
                for (int i = 0; i < dc.width; i++) {
                    bus[i] = nl.addGate(GateOp::Dff);
                    nl.gates[bus[i]].init = dc.resetValue.getBit(i);
                    nl.gates[bus[i]].name =
                        dc.name + "[" + std::to_string(i) + "]";
                }
                nl.registers[dc.name] = bus;
                env[dc.name] = bus;
            }
        }

        for (const Stmt &s : d.stmts()) {
            if (s.kind == Stmt::Assign) {
                Bus v = eval(s.value);
                const Decl &dc = d.decl(s.target);
                if (dc.kind == DeclKind::Register) {
                    // Patch Dff D-inputs.
                    const Bus &ff = nl.registers.at(s.target);
                    for (int i = 0; i < dc.width; i++)
                        nl.gates[ff[i]].a = v[i];
                } else {
                    env[s.target] = v;
                    if (dc.kind == DeclKind::Output)
                        nl.outputs[s.target] = v;
                }
            } else {
                WritePort wp;
                wp.mem = s.mem;
                wp.addr = eval(s.addr);
                wp.data = eval(s.data);
                wp.enable = eval(s.enable)[0];
                nl.writePorts.push_back(std::move(wp));
            }
        }
        // Registers without an assignment hold their value: D = Q.
        for (auto &[name, bus] : nl.registers) {
            for (int32_t g : bus) {
                if (nl.gates[g].a == -1)
                    nl.gates[g].a = g;
            }
        }
        return std::move(nl);
    }

  private:
    const Design &d;
    Netlist nl;
    int32_t c0 = -1, c1 = -1;
    std::unordered_map<std::string, Bus> env;

    int32_t lit(bool v) const { return v ? c1 : c0; }

    int32_t gAnd(int32_t a, int32_t b) { return nl.addGate(GateOp::And, a, b); }
    int32_t gOr(int32_t a, int32_t b) { return nl.addGate(GateOp::Or, a, b); }
    int32_t gXor(int32_t a, int32_t b) { return nl.addGate(GateOp::Xor, a, b); }
    int32_t gNot(int32_t a) { return nl.addGate(GateOp::Not, a); }

    int32_t
    gMux(int32_t c, int32_t t, int32_t e)
    {
        return gOr(gAnd(c, t), gAnd(gNot(c), e));
    }

    Bus
    addVec(const Bus &a, const Bus &b, int32_t cin)
    {
        Bus out(a.size());
        int32_t carry = cin;
        for (size_t i = 0; i < a.size(); i++) {
            int32_t axb = gXor(a[i], b[i]);
            out[i] = gXor(axb, carry);
            carry = gOr(gAnd(a[i], b[i]), gAnd(axb, carry));
        }
        return out;
    }

    Bus
    notVec(const Bus &a)
    {
        Bus out(a.size());
        for (size_t i = 0; i < a.size(); i++)
            out[i] = gNot(a[i]);
        return out;
    }

    int32_t
    ultBit(const Bus &a, const Bus &b)
    {
        int32_t lt = c0;
        for (size_t i = 0; i < a.size(); i++) {
            int32_t eq = gNot(gXor(a[i], b[i]));
            lt = gOr(gAnd(gNot(a[i]), b[i]), gAnd(eq, lt));
        }
        return lt;
    }

    Bus
    shiftVec(const Bus &val, const Bus &amt, bool left, bool arith,
             bool rotate)
    {
        size_t w = val.size();
        int32_t fill = arith ? val.back() : c0;
        Bus cur = val;
        for (size_t k = 0; k < amt.size() && (1ULL << k) < 2 * w; k++) {
            size_t dist = (1ULL << k) % (rotate ? w : SIZE_MAX);
            Bus shifted(w, fill);
            for (size_t i = 0; i < w; i++) {
                if (rotate) {
                    size_t src = left ? (i + w - dist % w) % w
                                      : (i + dist) % w;
                    shifted[i] = cur[src];
                } else if (left) {
                    shifted[i] = i >= dist && dist < w ? cur[i - dist]
                                                       : c0;
                } else {
                    shifted[i] = i + dist < w ? cur[i + dist] : fill;
                }
            }
            for (size_t i = 0; i < w; i++)
                cur[i] = gMux(amt[k], shifted[i], cur[i]);
        }
        if (!rotate) {
            int32_t huge = c0;
            for (size_t k = 0; k < amt.size(); k++) {
                if ((1ULL << k) >= 2 * w || k >= 63)
                    huge = gOr(huge, amt[k]);
            }
            int32_t out_fill = left ? c0 : fill;
            for (size_t i = 0; i < w; i++)
                cur[i] = gMux(huge, out_fill, cur[i]);
        }
        return cur;
    }

    /**
     * Gates computing expression `root`. Walks an explicit stack, not
     * the call stack: designs built in C++ have no parser depth cap,
     * so an expression may nest arbitrarily deep. Each node's kids are
     * compiled in order, each completely, before the node's own gates;
     * a shared subexpression is compiled once per use.
     */
    Bus
    eval(ExprRef root)
    {
        struct Frame
        {
            ExprRef r;
            size_t next = 0; ///< kids compiled so far
        };
        std::vector<Frame> stack{{root}};
        // Compiled kids of the open frames, innermost frame's last.
        std::vector<Bus> kids;
        while (!stack.empty()) {
            Frame &f = stack.back();
            const Expr &e = d.expr(f.r);
            if (f.next < e.kids.size()) {
                ExprRef kid = e.kids[f.next++];
                stack.push_back({kid});
                continue;
            }
            size_t first = kids.size() - e.kids.size();
            Bus out = gates(e, kids.data() + first);
            kids.resize(first);
            kids.push_back(std::move(out));
            stack.pop_back();
        }
        return std::move(kids.back());
    }

    /** Gates for node `e` over its compiled kids `k[0..]`. */
    Bus
    gates(const Expr &e, Bus *k)
    {
        Bus out;
        switch (e.op) {
          case ExOp::Var: {
            auto it = env.find(e.name);
            if (it == env.end())
                owl_fatal("netlist: use of '", e.name,
                          "' before definition");
            return it->second;
          }
          case ExOp::Const: {
            out.resize(e.width);
            for (int i = 0; i < e.width; i++)
                out[i] = lit(e.cval.getBit(i));
            return out;
          }
          case ExOp::Not: {
            return notVec(k[0]);
          }
          case ExOp::And:
          case ExOp::Or:
          case ExOp::Xor: {
            const Bus &a = k[0], &b = k[1];
            out.resize(e.width);
            for (int i = 0; i < e.width; i++) {
                out[i] = e.op == ExOp::And ? gAnd(a[i], b[i])
                         : e.op == ExOp::Or ? gOr(a[i], b[i])
                                            : gXor(a[i], b[i]);
            }
            return out;
          }
          case ExOp::Neg: {
            Bus a = notVec(k[0]);
            Bus zero(a.size(), c0);
            return addVec(a, zero, c1);
          }
          case ExOp::Add:
            return addVec(k[0], k[1], c0);
          case ExOp::Sub:
            return addVec(k[0], notVec(k[1]), c1);
          case ExOp::Mul: {
            const Bus &a = k[0], &b = k[1];
            size_t w = a.size();
            Bus acc(w, c0);
            for (size_t i = 0; i < w; i++) {
                Bus pp(w, c0);
                for (size_t j = 0; i + j < w; j++)
                    pp[i + j] = gAnd(a[j], b[i]);
                acc = addVec(acc, pp, c0);
            }
            return acc;
          }
          case ExOp::Clmul: {
            const Bus &a = k[0], &b = k[1];
            size_t w = a.size();
            Bus acc(w, c0);
            for (size_t i = 0; i < w; i++) {
                for (size_t j = 0; i + j < w; j++)
                    acc[i + j] = gXor(acc[i + j], gAnd(a[j], b[i]));
            }
            return acc;
          }
          case ExOp::Clmulh: {
            const Bus &a = k[0], &b = k[1];
            size_t w = a.size();
            Bus acc(w, c0);
            for (size_t i = 0; i < w; i++) {
                for (size_t j = 0; j < w; j++) {
                    size_t pos = i + j;
                    if (pos >= w)
                        acc[pos - w] =
                            gXor(acc[pos - w], gAnd(a[j], b[i]));
                }
            }
            return acc;
          }
          case ExOp::Eq:
          case ExOp::Ne: {
            const Bus &a = k[0], &b = k[1];
            int32_t acc = c1;
            for (size_t i = 0; i < a.size(); i++)
                acc = gAnd(acc, gNot(gXor(a[i], b[i])));
            return {e.op == ExOp::Eq ? acc : gNot(acc)};
          }
          case ExOp::Ult:
            return {ultBit(k[0], k[1])};
          case ExOp::Ule:
            return {gNot(ultBit(k[1], k[0]))};
          case ExOp::Slt: {
            Bus &a = k[0], &b = k[1];
            a.back() = gNot(a.back());
            b.back() = gNot(b.back());
            return {ultBit(a, b)};
          }
          case ExOp::Sle: {
            Bus &a = k[0], &b = k[1];
            a.back() = gNot(a.back());
            b.back() = gNot(b.back());
            return {gNot(ultBit(b, a))};
          }
          case ExOp::Ite: {
            const Bus &c = k[0], &t = k[1], &el = k[2];
            out.resize(e.width);
            for (int i = 0; i < e.width; i++)
                out[i] = gMux(c[0], t[i], el[i]);
            return out;
          }
          case ExOp::Extract: {
            const Bus &a = k[0];
            return Bus(a.begin() + e.b, a.begin() + e.a + 1);
          }
          case ExOp::Concat: {
            Bus lo = std::move(k[1]);
            lo.insert(lo.end(), k[0].begin(), k[0].end());
            return lo;
          }
          case ExOp::ZExt: {
            Bus a = std::move(k[0]);
            a.resize(e.width, c0);
            return a;
          }
          case ExOp::SExt: {
            Bus a = std::move(k[0]);
            a.resize(e.width, a.back());
            return a;
          }
          case ExOp::Shl:
            return shiftVec(k[0], k[1], true, false, false);
          case ExOp::Lshr:
            return shiftVec(k[0], k[1], false, false, false);
          case ExOp::Ashr:
            return shiftVec(k[0], k[1], false, true, false);
          case ExOp::Rol:
            return shiftVec(k[0], k[1], true, false, true);
          case ExOp::Ror:
            return shiftVec(k[0], k[1], false, false, true);
          case ExOp::Read: {
            const Decl &mc = d.decl(e.name);
            ReadPort rp;
            rp.mem = e.name;
            rp.addr = k[0];
            rp.data.resize(mc.width);
            for (int i = 0; i < mc.width; i++) {
                rp.data[i] = nl.addGate(GateOp::MemData);
                nl.gates[rp.data[i]].name =
                    e.name + ".q[" + std::to_string(i) + "]";
            }
            nl.readPorts.push_back(rp);
            return rp.data;
          }
        }
        owl_panic("unhandled op in netlist compile");
    }
};

} // namespace

Netlist
compile(const oyster::Design &design)
{
    lint::checkDesign(design, /*allow_holes=*/false);
    Compiler c(design);
    return c.run();
}

} // namespace owl::netlist
