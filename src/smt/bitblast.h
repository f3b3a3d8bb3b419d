/**
 * @file
 * Tseitin bit-blasting of SMT terms to CNF.
 *
 * Each term maps to a vector of SAT literals, least-significant bit
 * first. Constant bits are the shared true/false literals, so the gate
 * helpers can short-circuit and a lot of structurally-constant logic
 * never reaches the SAT solver.
 *
 * Every gate goes through one structural-hashing (strash) layer, as in
 * an AIG package: AND, XOR and mux inputs are normalised (constants
 * folded, inputs ordered, negations pushed onto the output edge) and
 * looked up in a per-blaster table before a variable is allocated, so
 * the same gate over the same literals is built once. DESIGN.md §15
 * has the normalisation rules and the reuse rule.
 */

#ifndef OWL_SMT_BITBLAST_H
#define OWL_SMT_BITBLAST_H

#include <cstdint>
#include <span>
#include <vector>

#include "obs/obs.h"
#include "sat/solver.h"
#include "smt/term.h"

namespace owl::smt
{

/** Gate-level work of one BitBlaster, cumulative. */
struct BlastStats
{
    /** Gates given a fresh variable and defining clauses. */
    uint64_t gates = 0;
    /** Gate requests answered by an existing gate from the table. */
    uint64_t strashHits = 0;
};

/**
 * Bit-blasts terms from one TermTable into one sat::Solver. The
 * blaster caches each term's literals, so shared subterms produce
 * shared circuitry, and hashes every gate it makes, so the same gate
 * reached from different terms is shared too. The cached encodings
 * sit back to back in one literal pool, found through a per-term
 * offset indexed by the TermTable's dense node index.
 *
 * The blaster may outlive solves of its solver (IncrementalContext
 * blasts between check() calls). A table hit is reused only while its
 * output variable is not eliminated; otherwise the gate is rebuilt
 * over a fresh variable. Simplification preserves the formula
 * projected onto the surviving variables, so a surviving output still
 * means its gate.
 */
class BitBlaster
{
  public:
    BitBlaster(const TermTable &tt, sat::Solver &solver);

    /**
     * Literals (lsb first) representing the term's value. The span
     * points into the pool and is invalidated by the next blast() or
     * assertTrue() that encodes a new term; copy it to keep it.
     */
    std::span<const sat::Lit> blast(TermRef t);

    /** Assert that a 1-bit term is true. */
    void assertTrue(TermRef t);

    /**
     * Assert the Ackermann congruence addr_a = addr_b -> a = b of two
     * reads of one memory at literal level: a hashed XNOR per bit and
     * an AND chain per side (the gates an Eq term blasts to), then the
     * one clause ~addr_eq v val_eq. Both reads and both addresses must
     * already be blasted, and their literals must have survived
     * simplification: callers freeze them before the first solve.
     * Blasts no term, so it is safe between solves of a simplifying
     * solver, where a term-level congruence is not: mkEq folding can
     * reduce it to subterms (an ite condition inside an address)
     * whose unfrozen encodings may be eliminated by then.
     */
    void assertCongruence(TermRef read_a, TermRef read_b);

    /** The always-true literal. */
    sat::Lit trueLit() const { return tl; }

    /**
     * Read a leaf's value out of a SAT model. Only meaningful for
     * terms that were blasted before solving.
     */
    BitVec modelValue(TermRef t) const;

    /**
     * Number of terms with an encoding in the blast cache. The
     * incremental layer diffs this across iterations to count how
     * much of each delta query was already in CNF (cache hits).
     */
    size_t cachedTerms() const { return nCached; }

    /**
     * Append-only log of every literal a cached encoding exposes (the
     * shared true literal, then each blasted term's literal vector in
     * completion order). These are the literals callers' clauses and
     * assumptions can mention, so the incremental layer freezes them
     * (sat::Solver::setFrozen) before letting the pre/inprocessing
     * pass eliminate anything. Gate-internal variables stay unfrozen:
     * the only later use of one is a strash hit, which checks that it
     * survived. Indices into the log are stable; the caller keeps a
     * high-water mark and freezes the suffix.
     */
    const std::vector<sat::Lit> &cacheOutputLog() const
    {
        return outputLog;
    }

    const BlastStats &stats() const { return bstats; }

    /**
     * Book the gates and strash hits made since the previous call as
     * attributes of `span` (an smt.bitblast span) and on the
     * smt.bitblast.gates / smt.bitblast.strash_hits counters, so the
     * span attributes of a run add up to its counters.
     */
    void bookStats(obs::ScopedSpan &span);

    /**
     * Native multiplexer c ? t : e: one variable and six clauses
     * (the two redundant ones let propagation see t == e). Hashed on
     * (c, t, e) after normalising c and t to positive literals;
     * degenerate forms reduce to a hashed AND, OR or XOR.
     */
    sat::Lit gMux(sat::Lit c, sat::Lit t, sat::Lit e);

  private:
    const TermTable &tt;
    sat::Solver &solver;
    sat::Lit tl;
    /**
     * The blast cache: term t's encoding is
     * pool[termOff[t.idx], termOff[t.idx] + width(t)), or kUnblasted.
     * termOff grows with the TermTable; the pool only appends.
     */
    std::vector<sat::Lit> pool;
    std::vector<uint32_t> termOff;
    static constexpr uint32_t kUnblasted = UINT32_MAX;
    size_t nCached = 0;
    /** blast() scratch: the post-order worklist and a node's output. */
    std::vector<TermRef> blastStack;
    std::vector<sat::Lit> nodeOut;
    std::vector<sat::Lit> outputLog; ///< see cacheOutputLog()

    /**
     * One strash table entry: a normalised gate and its output. AND
     * and XOR keys carry a tag in `c`; a mux key is (c, t, e). Literal
     * codes stay below 2^31, so the tags cannot collide with a mux.
     */
    struct Gate
    {
        uint32_t a, b, c;
        sat::Lit out; ///< invalid marks an empty slot
    };
    static constexpr uint32_t kAndTag = 0xffffffffu;
    static constexpr uint32_t kXorTag = 0xfffffffeu;
    /** Open addressing, linear probing, power-of-two size. */
    std::vector<Gate> gates;
    size_t gatesUsed = 0;
    BlastStats bstats;
    BlastStats booked; ///< bstats at the last bookStats()

    sat::Lit lConst(bool v) const { return v ? tl : ~tl; }
    bool isTrueLit(sat::Lit l) const { return l == tl; }
    bool isFalseLit(sat::Lit l) const { return l == ~tl; }

    sat::Lit freshLit();
    bool isBlasted(TermRef t) const
    {
        return t.idx < termOff.size() && termOff[t.idx] != kUnblasted;
    }
    std::span<const sat::Lit> encoding(TermRef t) const
    {
        return {pool.data() + termOff[t.idx],
                static_cast<size_t>(tt.width(t))};
    }
    /** The slot holding key (a, b, c), or the empty slot for it. */
    Gate &gateSlot(uint32_t a, uint32_t b, uint32_t c);
    /**
     * The output of the gate with key (a, b, c). A table hit is reused
     * unless the simplifier eliminated its output: such a gate has no
     * defining clauses left. Otherwise a fresh output variable takes
     * the slot and `fresh` tells the caller to add its clauses.
     */
    sat::Lit gate(uint32_t a, uint32_t b, uint32_t c, bool &fresh);
    sat::Lit gAnd(sat::Lit a, sat::Lit b);
    sat::Lit gOr(sat::Lit a, sat::Lit b);
    sat::Lit gXor(sat::Lit a, sat::Lit b);
    /** Term-level ite as a hashed AND/OR pair (see blastNode()). */
    sat::Lit gIte(sat::Lit c, sat::Lit t, sat::Lit e);
    /** Full adder; returns sum, sets carry_out. */
    sat::Lit gFullAdder(sat::Lit a, sat::Lit b, sat::Lit cin,
                        sat::Lit &cout);

    /** Encode node t, whose children are already blasted, into out. */
    void blastNode(TermRef t, std::vector<sat::Lit> &out);
    std::vector<sat::Lit> addVec(std::span<const sat::Lit> a,
                                 std::span<const sat::Lit> b,
                                 sat::Lit cin);
    std::vector<sat::Lit> mulVec(std::span<const sat::Lit> a,
                                 std::span<const sat::Lit> b);
    std::vector<sat::Lit> negVec(std::span<const sat::Lit> a);
    /** a == b as one literal: AND over the bitwise XNORs. */
    sat::Lit eqVec(std::span<const sat::Lit> a,
                   std::span<const sat::Lit> b);
    sat::Lit ultVec(std::span<const sat::Lit> a,
                    std::span<const sat::Lit> b);
    std::vector<sat::Lit> shiftVec(std::span<const sat::Lit> val,
                                   std::span<const sat::Lit> amt,
                                   bool left, bool arith);
    std::vector<sat::Lit> lookupVec(const TableInfo &info,
                                    std::span<const sat::Lit> idx,
                                    size_t base, int bits);
};

} // namespace owl::smt

#endif // OWL_SMT_BITBLAST_H
