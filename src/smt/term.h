/**
 * @file
 * Hash-consed bitvector term DAG — the SMT expression layer.
 *
 * Oyster symbolic evaluation and the ILA condition compiler both
 * produce terms in one shared TermTable. Hash-consing gives structural
 * sharing: identical subcomputations (e.g. the AES round function
 * appearing in both the spec translation and the datapath evaluation)
 * collapse to the same node, which the simplifier then exploits
 * (Eq(t, t) folds to true). This mirrors the partial evaluation that
 * Rosette's symbolic VM performs in the paper's artifact.
 *
 * Terms are pure bitvectors; booleans are 1-bit vectors. Memories are
 * NOT terms — following the paper (§3.1) they live in the symbolic
 * evaluator as an uninterpreted base plus an association list of
 * writes, and only their reads enter the term language (Op::BaseRead).
 * Read-only lookup tables (the AES S-box, modelled as ILA MemConst)
 * are first-class (Op::Lookup) so that both sides share them.
 */

#ifndef OWL_SMT_TERM_H
#define OWL_SMT_TERM_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/bitvec.h"

namespace owl::smt
{

/** Term operators. Comparison and Eq operators produce 1-bit terms. */
enum class Op : uint8_t
{
    Const,    ///< immediate BitVec value
    Var,      ///< free variable (symbolic input / initial state)
    BaseRead, ///< uninterpreted read of memory base state at an address
    Lookup,   ///< read of a registered constant table (ROM / MemConst)
    Not,      ///< bitwise complement
    And,
    Or,
    Xor,
    Neg,      ///< two's-complement negation
    Add,
    Sub,
    Mul,
    Clmul,    ///< carry-less multiply, low half
    Clmulh,   ///< carry-less multiply, high half
    Eq,       ///< 1-bit equality
    Ult,
    Ule,
    Slt,
    Sle,
    Ite,      ///< children: {cond(1-bit), then, else}
    Extract,  ///< bits [a:b] of child
    Concat,   ///< children: {high, low}
    ZExt,
    SExt,
    Shl,      ///< children: {value, amount}; amount width may differ
    Lshr,
    Ashr,
};

const char *opName(Op op);

/** An index into the TermTable; cheap to copy and compare. */
struct TermRef
{
    uint32_t idx = UINT32_MAX;

    bool valid() const { return idx != UINT32_MAX; }
    bool operator==(const TermRef &o) const { return idx == o.idx; }
    bool operator!=(const TermRef &o) const { return idx != o.idx; }
};

/** A term node. Interpretation of a/b depends on the op (see fields). */
struct Node
{
    Op op;
    int width;
    /// Const: const-pool index. Var: var id. BaseRead: memory id.
    /// Lookup: table id. Extract: high bit index.
    int a = 0;
    /// Extract: low bit index. Otherwise unused.
    int b = 0;
    std::vector<TermRef> children;
};

/** Metadata for a free variable. */
struct VarInfo
{
    std::string name;
    int width;
};

/** A registered read-only lookup table (ILA MemConst). */
struct TableInfo
{
    std::string name;
    int elemWidth;
    std::vector<BitVec> entries;
};

/**
 * The hash-consing term table. All terms used together in a synthesis
 * problem must come from the same table.
 */
class TermTable
{
  public:
    TermTable();

    // ---- leaves ----
    TermRef constant(const BitVec &v);
    TermRef constant(int width, uint64_t v)
    {
        return constant(BitVec(width, v));
    }
    TermRef trueTerm() { return constant(1, 1); }
    TermRef falseTerm() { return constant(1, 0); }

    /** Create a fresh free variable (a new var id every call). */
    TermRef freshVar(const std::string &name, int width);

    /** The term for an existing variable id. */
    TermRef varTerm(int var_id) const;

    /** Uninterpreted base-state read of memory mem_id at addr. */
    TermRef baseRead(int mem_id, TermRef addr, int data_width);

    /**
     * Register a constant table; returns its id. Deduplicated by
     * contents: the entries are copied only when the table is new.
     */
    int registerTable(const std::string &name, int elem_width,
                      const std::vector<BitVec> &entries);
    /** Lookup into a registered table by symbolic index. */
    TermRef lookup(int table_id, TermRef index);

    // ---- operators (simplifying constructors; see simplify.cc) ----
    TermRef mkNot(TermRef a);
    TermRef mkAnd(TermRef a, TermRef b);
    TermRef mkOr(TermRef a, TermRef b);
    TermRef mkXor(TermRef a, TermRef b);
    TermRef mkNeg(TermRef a);
    TermRef mkAdd(TermRef a, TermRef b);
    TermRef mkSub(TermRef a, TermRef b);
    TermRef mkMul(TermRef a, TermRef b);
    TermRef mkClmul(TermRef a, TermRef b);
    TermRef mkClmulh(TermRef a, TermRef b);
    TermRef mkEq(TermRef a, TermRef b);
    TermRef mkNe(TermRef a, TermRef b) { return mkNot(mkEq(a, b)); }
    TermRef mkUlt(TermRef a, TermRef b);
    TermRef mkUle(TermRef a, TermRef b);
    TermRef mkUgt(TermRef a, TermRef b) { return mkUlt(b, a); }
    TermRef mkUge(TermRef a, TermRef b) { return mkUle(b, a); }
    TermRef mkSlt(TermRef a, TermRef b);
    TermRef mkSle(TermRef a, TermRef b);
    TermRef mkSgt(TermRef a, TermRef b) { return mkSlt(b, a); }
    TermRef mkSge(TermRef a, TermRef b) { return mkSle(b, a); }
    TermRef mkIte(TermRef c, TermRef t, TermRef e);
    TermRef mkExtract(TermRef a, int high, int low);
    TermRef mkConcat(TermRef high, TermRef low);
    TermRef mkZExt(TermRef a, int new_width);
    TermRef mkSExt(TermRef a, int new_width);
    TermRef mkShl(TermRef a, TermRef amount);
    TermRef mkLshr(TermRef a, TermRef amount);
    TermRef mkAshr(TermRef a, TermRef amount);
    /** Rotates, derived from shifts (amount taken mod width). */
    TermRef mkRol(TermRef a, TermRef amount);
    TermRef mkRor(TermRef a, TermRef amount);
    /** Boolean implication over 1-bit terms. */
    TermRef mkImplies(TermRef a, TermRef b)
    {
        return mkOr(mkNot(a), b);
    }

    // ---- inspection ----
    const Node &node(TermRef t) const { return nodes[t.idx]; }
    int width(TermRef t) const { return nodes[t.idx].width; }
    bool isConst(TermRef t) const
    {
        return nodes[t.idx].op == Op::Const;
    }
    const BitVec &constValue(TermRef t) const;
    bool isTrue(TermRef t) const;
    bool isFalse(TermRef t) const;
    const VarInfo &varInfo(int var_id) const { return vars[var_id]; }
    int numVars() const { return vars.size(); }
    const TableInfo &tableInfo(int table_id) const
    {
        return tables[table_id];
    }
    int numTables() const { return tables.size(); }
    size_t numNodes() const { return nodes.size(); }

    /**
     * Append a node verbatim — no simplification, no hash-consing, no
     * width checking. Exists solely so tests can plant corrupted or
     * duplicate nodes for the lint pass (lint::lintTerms) to catch;
     * never use it to build real terms.
     */
    TermRef unsafeIntern(Node n);

    /** Collect all Var and BaseRead terms reachable from the roots. */
    void collectLeaves(const std::vector<TermRef> &roots,
                       std::vector<TermRef> &out_vars,
                       std::vector<TermRef> &out_base_reads) const;

    /** Pretty-print a term as an s-expression (debugging aid). */
    std::string toString(TermRef t) const;

  private:
    friend class Simplifier;

    std::vector<Node> nodes;
    std::vector<BitVec> constPool;
    std::unordered_map<size_t, std::vector<uint32_t>> constIndex;
    std::vector<VarInfo> vars;
    std::vector<TermRef> varTerms;
    std::vector<TableInfo> tables;
    std::unordered_map<size_t, std::vector<uint32_t>> nodeIndex;

    /** Hash-cons a node (no simplification). */
    TermRef intern(Node n);
    int internConst(const BitVec &v);

    /** Apply local rewrites then intern; defined in simplify.cc. */
    TermRef mk(Node n);
};

/**
 * Concrete evaluation of a term under an assignment of variables and
 * memory bases. Used for model evaluation, CEGIS counterexample
 * substitution and differential testing against the bit-blaster.
 */
class Assignment
{
  public:
    /** Set the value of a Var term (by var id). */
    void setVar(int var_id, const BitVec &v);
    /** Default value for a base read of mem_id at a concrete address. */
    void setMemWord(int mem_id, uint64_t addr, const BitVec &v);

    bool hasVar(int var_id) const;
    const BitVec *memWord(int mem_id, uint64_t addr) const;
    BitVec varValue(int var_id, int width) const;

  private:
    std::unordered_map<int, BitVec> varVals;
    std::unordered_map<int, std::unordered_map<uint64_t, BitVec>> memVals;
};

/** Evaluate t concretely; unassigned leaves read as zero. */
BitVec evalTerm(const TermTable &tt, TermRef t, const Assignment &asg);

} // namespace owl::smt

#endif // OWL_SMT_TERM_H
