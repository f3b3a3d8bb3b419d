/**
 * @file
 * Tseitin bit-blasting of SMT terms to CNF.
 *
 * Each term maps to a vector of SAT literals, least-significant bit
 * first. Constant bits are the shared true/false literals, so the gate
 * helpers can short-circuit and a lot of structurally-constant logic
 * never reaches the SAT solver.
 */

#ifndef OWL_SMT_BITBLAST_H
#define OWL_SMT_BITBLAST_H

#include <unordered_map>
#include <vector>

#include "sat/solver.h"
#include "smt/term.h"

namespace owl::smt
{

/**
 * Bit-blasts terms from one TermTable into one sat::Solver. The
 * blaster caches literal vectors per term, so shared subterms produce
 * shared circuitry (structural CSE at the CNF level).
 */
class BitBlaster
{
  public:
    BitBlaster(const TermTable &tt, sat::Solver &solver);

    /** Literals (lsb first) representing the term's value. */
    const std::vector<sat::Lit> &blast(TermRef t);

    /** Assert that a 1-bit term is true. */
    void assertTrue(TermRef t);

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
    size_t cachedTerms() const { return cache.size(); }

    /**
     * Append-only log of every literal a cached encoding exposes (the
     * shared true literal, then each blasted term's literal vector in
     * completion order). These are exactly the literals future clauses
     * and assumptions can mention — gate-internal variables never
     * escape blastNode() — so the incremental layer freezes them
     * (sat::Solver::setFrozen) before letting the pre/inprocessing
     * pass eliminate anything. Indices into the log are stable; the
     * caller keeps a high-water mark and freezes the suffix.
     */
    const std::vector<sat::Lit> &cacheOutputLog() const
    {
        return outputLog;
    }

  private:
    const TermTable &tt;
    sat::Solver &solver;
    sat::Lit tl;
    std::unordered_map<uint32_t, std::vector<sat::Lit>> cache;
    std::vector<sat::Lit> outputLog; ///< see cacheOutputLog()

    sat::Lit lConst(bool v) const { return v ? tl : ~tl; }
    bool isTrueLit(sat::Lit l) const { return l == tl; }
    bool isFalseLit(sat::Lit l) const { return l == ~tl; }

    sat::Lit freshLit();
    sat::Lit gAnd(sat::Lit a, sat::Lit b);
    sat::Lit gOr(sat::Lit a, sat::Lit b);
    sat::Lit gXor(sat::Lit a, sat::Lit b);
    sat::Lit gMux(sat::Lit c, sat::Lit t, sat::Lit e);
    /** Full adder; returns sum, sets carry_out. */
    sat::Lit gFullAdder(sat::Lit a, sat::Lit b, sat::Lit cin,
                        sat::Lit &cout);

    std::vector<sat::Lit> blastNode(TermRef t);
    std::vector<sat::Lit> addVec(const std::vector<sat::Lit> &a,
                                 const std::vector<sat::Lit> &b,
                                 sat::Lit cin);
    std::vector<sat::Lit> mulVec(const std::vector<sat::Lit> &a,
                                 const std::vector<sat::Lit> &b);
    std::vector<sat::Lit> negVec(const std::vector<sat::Lit> &a);
    sat::Lit ultVec(const std::vector<sat::Lit> &a,
                    const std::vector<sat::Lit> &b);
    std::vector<sat::Lit> shiftVec(const std::vector<sat::Lit> &val,
                                   const std::vector<sat::Lit> &amt,
                                   bool left, bool arith);
    std::vector<sat::Lit> lookupVec(const TableInfo &info,
                                    const std::vector<sat::Lit> &idx,
                                    size_t base, int bits);
};

} // namespace owl::smt

#endif // OWL_SMT_BITBLAST_H
