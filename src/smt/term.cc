#include "smt/term.h"

#include <functional>
#include <sstream>

#include "base/logging.h"

namespace owl::smt
{

const char *
opName(Op op)
{
    switch (op) {
      case Op::Const: return "const";
      case Op::Var: return "var";
      case Op::BaseRead: return "base-read";
      case Op::Lookup: return "lookup";
      case Op::Not: return "not";
      case Op::And: return "and";
      case Op::Or: return "or";
      case Op::Xor: return "xor";
      case Op::Neg: return "neg";
      case Op::Add: return "add";
      case Op::Sub: return "sub";
      case Op::Mul: return "mul";
      case Op::Clmul: return "clmul";
      case Op::Clmulh: return "clmulh";
      case Op::Eq: return "eq";
      case Op::Ult: return "ult";
      case Op::Ule: return "ule";
      case Op::Slt: return "slt";
      case Op::Sle: return "sle";
      case Op::Ite: return "ite";
      case Op::Extract: return "extract";
      case Op::Concat: return "concat";
      case Op::ZExt: return "zext";
      case Op::SExt: return "sext";
      case Op::Shl: return "shl";
      case Op::Lshr: return "lshr";
      case Op::Ashr: return "ashr";
    }
    return "?";
}

namespace
{

size_t
nodeHash(const Node &n)
{
    size_t h = static_cast<size_t>(n.op);
    h = h * 1000003u + std::hash<int>{}(n.width);
    h = h * 1000003u + std::hash<int>{}(n.a);
    h = h * 1000003u + std::hash<int>{}(n.b);
    for (TermRef c : n.children)
        h = h * 1000003u + c.idx;
    return h;
}

bool
nodeEq(const Node &x, const Node &y)
{
    return x.op == y.op && x.width == y.width && x.a == y.a &&
           x.b == y.b && x.children == y.children;
}

} // namespace

TermTable::TermTable()
{
}

int
TermTable::internConst(const BitVec &v)
{
    size_t h = v.hash();
    for (uint32_t i : constIndex[h]) {
        if (constPool[i] == v)
            return i;
    }
    constPool.push_back(v);
    constIndex[h].push_back(constPool.size() - 1);
    return constPool.size() - 1;
}

TermRef
TermTable::intern(Node n)
{
    size_t h = nodeHash(n);
    for (uint32_t i : nodeIndex[h]) {
        if (nodeEq(nodes[i], n))
            return TermRef{i};
    }
    nodes.push_back(std::move(n));
    uint32_t idx = nodes.size() - 1;
    nodeIndex[h].push_back(idx);
    return TermRef{idx};
}

TermRef
TermTable::unsafeIntern(Node n)
{
    // Deliberately bypasses nodeIndex so the new node can duplicate an
    // existing one — the exact corruption lint::lintTerms exists to
    // detect (test backdoor; see header comment).
    nodes.push_back(std::move(n));
    return TermRef{static_cast<uint32_t>(nodes.size() - 1)};
}

TermRef
TermTable::constant(const BitVec &v)
{
    Node n;
    n.op = Op::Const;
    n.width = v.width();
    n.a = internConst(v);
    return intern(std::move(n));
}

TermRef
TermTable::freshVar(const std::string &name, int width)
{
    int id = vars.size();
    vars.push_back(VarInfo{name, width});
    Node n;
    n.op = Op::Var;
    n.width = width;
    n.a = id;
    TermRef t = intern(std::move(n));
    varTerms.push_back(t);
    return t;
}

TermRef
TermTable::varTerm(int var_id) const
{
    owl_assert(var_id >= 0 && var_id < static_cast<int>(varTerms.size()),
               "unknown var id ", var_id);
    return varTerms[var_id];
}

TermRef
TermTable::baseRead(int mem_id, TermRef addr, int data_width)
{
    Node n;
    n.op = Op::BaseRead;
    n.width = data_width;
    n.a = mem_id;
    n.children = {addr};
    return intern(std::move(n));
}

int
TermTable::registerTable(const std::string &name, int elem_width,
                         const std::vector<BitVec> &entries)
{
    // Deduplicate by contents so the spec side and the datapath side
    // of e.g. the AES S-box share one table id (and thus hash-cons
    // their lookups together).
    for (size_t i = 0; i < tables.size(); i++) {
        if (tables[i].elemWidth == elem_width &&
            tables[i].entries == entries) {
            return i;
        }
    }
    tables.push_back(TableInfo{name, elem_width, entries});
    return tables.size() - 1;
}

TermRef
TermTable::lookup(int table_id, TermRef index)
{
    owl_assert(table_id >= 0 &&
               table_id < static_cast<int>(tables.size()),
               "unknown table id ", table_id);
    const TableInfo &info = tables[table_id];
    if (isConst(index)) {
        uint64_t i = constValue(index).toUint64();
        if (i < info.entries.size())
            return constant(info.entries[i]);
        return constant(BitVec(info.elemWidth));
    }
    Node n;
    n.op = Op::Lookup;
    n.width = info.elemWidth;
    n.a = table_id;
    n.children = {index};
    return intern(std::move(n));
}

const BitVec &
TermTable::constValue(TermRef t) const
{
    const Node &n = nodes[t.idx];
    owl_assert(n.op == Op::Const, "constValue of non-constant term");
    return constPool[n.a];
}

bool
TermTable::isTrue(TermRef t) const
{
    return isConst(t) && width(t) == 1 && !constValue(t).isZero();
}

bool
TermTable::isFalse(TermRef t) const
{
    return isConst(t) && width(t) == 1 && constValue(t).isZero();
}

void
TermTable::collectLeaves(const std::vector<TermRef> &roots,
                         std::vector<TermRef> &out_vars,
                         std::vector<TermRef> &out_base_reads) const
{
    std::vector<bool> visited(nodes.size(), false);
    std::vector<TermRef> stack = roots;
    while (!stack.empty()) {
        TermRef t = stack.back();
        stack.pop_back();
        if (visited[t.idx])
            continue;
        visited[t.idx] = true;
        const Node &n = nodes[t.idx];
        if (n.op == Op::Var)
            out_vars.push_back(t);
        else if (n.op == Op::BaseRead)
            out_base_reads.push_back(t);
        for (TermRef c : n.children)
            stack.push_back(c);
    }
}

std::string
TermTable::toString(TermRef t) const
{
    const Node &n = nodes[t.idx];
    std::ostringstream os;
    switch (n.op) {
      case Op::Const:
        os << constPool[n.a].toString();
        break;
      case Op::Var:
        os << vars[n.a].name;
        break;
      case Op::BaseRead:
        os << "(base-read m" << n.a << " " << toString(n.children[0])
           << ")";
        break;
      case Op::Lookup:
        os << "(lookup " << tables[n.a].name << " "
           << toString(n.children[0]) << ")";
        break;
      case Op::Extract:
        os << "(extract " << n.a << " " << n.b << " "
           << toString(n.children[0]) << ")";
        break;
      default:
        os << "(" << opName(n.op);
        for (TermRef c : n.children)
            os << " " << toString(c);
        os << ")";
        break;
    }
    return os.str();
}

// ---- concrete evaluation -----------------------------------------------

void
Assignment::setVar(int var_id, const BitVec &v)
{
    varVals.insert_or_assign(var_id, v);
}

void
Assignment::setMemWord(int mem_id, uint64_t addr, const BitVec &v)
{
    memVals[mem_id].insert_or_assign(addr, v);
}

bool
Assignment::hasVar(int var_id) const
{
    return varVals.count(var_id) != 0;
}

const BitVec *
Assignment::memWord(int mem_id, uint64_t addr) const
{
    auto mit = memVals.find(mem_id);
    if (mit == memVals.end())
        return nullptr;
    auto it = mit->second.find(addr);
    return it == mit->second.end() ? nullptr : &it->second;
}

BitVec
Assignment::varValue(int var_id, int width) const
{
    auto it = varVals.find(var_id);
    if (it == varVals.end())
        return BitVec(width);
    owl_assert(it->second.width() == width, "assignment width mismatch");
    return it->second;
}

namespace
{

/** Clamp a shift amount so wide amounts saturate instead of wrapping. */
uint64_t
shiftAmount(const BitVec &v)
{
    for (int i = 64; i < v.width(); i++) {
        if (v.getBit(i))
            return UINT64_MAX;
    }
    return v.toUint64();
}

} // namespace

BitVec
evalTerm(const TermTable &tt, TermRef t, const Assignment &asg)
{
    std::unordered_map<uint32_t, BitVec> memo;
    std::function<BitVec(TermRef)> go = [&](TermRef r) -> BitVec {
        auto it = memo.find(r.idx);
        if (it != memo.end())
            return it->second;
        const Node &n = tt.node(r);
        auto child = [&](int i) { return go(n.children[i]); };
        BitVec result(n.width);
        switch (n.op) {
          case Op::Const:
            result = tt.constValue(r);
            break;
          case Op::Var:
            result = asg.varValue(n.a, n.width);
            break;
          case Op::BaseRead: {
            BitVec addr = child(0);
            const BitVec *v = asg.memWord(n.a, addr.toUint64());
            result = v ? *v : BitVec(n.width);
            break;
          }
          case Op::Lookup: {
            const TableInfo &info = tt.tableInfo(n.a);
            uint64_t i = child(0).toUint64();
            result = i < info.entries.size() ? info.entries[i]
                                             : BitVec(n.width);
            break;
          }
          case Op::Not: result = ~child(0); break;
          case Op::And: result = child(0) & child(1); break;
          case Op::Or: result = child(0) | child(1); break;
          case Op::Xor: result = child(0) ^ child(1); break;
          case Op::Neg: result = child(0).neg(); break;
          case Op::Add: result = child(0) + child(1); break;
          case Op::Sub: result = child(0) - child(1); break;
          case Op::Mul: result = child(0) * child(1); break;
          case Op::Clmul: result = child(0).clmul(child(1)); break;
          case Op::Clmulh: result = child(0).clmulh(child(1)); break;
          case Op::Eq:
            result = BitVec(1, child(0) == child(1) ? 1 : 0);
            break;
          case Op::Ult:
            result = BitVec(1, child(0).ult(child(1)) ? 1 : 0);
            break;
          case Op::Ule:
            result = BitVec(1, child(0).ule(child(1)) ? 1 : 0);
            break;
          case Op::Slt:
            result = BitVec(1, child(0).slt(child(1)) ? 1 : 0);
            break;
          case Op::Sle:
            result = BitVec(1, child(0).sle(child(1)) ? 1 : 0);
            break;
          case Op::Ite:
            result = child(0).isZero() ? child(2) : child(1);
            break;
          case Op::Extract:
            result = child(0).extract(n.a, n.b);
            break;
          case Op::Concat:
            result = child(0).concat(child(1));
            break;
          case Op::ZExt:
            result = child(0).zext(n.width);
            break;
          case Op::SExt:
            result = child(0).sext(n.width);
            break;
          case Op::Shl:
            result = child(0).shl(shiftAmount(child(1)));
            break;
          case Op::Lshr:
            result = child(0).lshr(shiftAmount(child(1)));
            break;
          case Op::Ashr:
            result = child(0).ashr(shiftAmount(child(1)));
            break;
        }
        memo.emplace(r.idx, result);
        return result;
    };
    return go(t);
}

} // namespace owl::smt
