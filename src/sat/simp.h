/**
 * @file
 * Static clause-database analysis primitives shared by the
 * SatELite-style pre/inprocessing pass (Solver::simplify, sat/simp.cc)
 * and the CNF lint rules (lint/lint_cnf.cc): 64-bit clause signatures,
 * the subsumption / self-subsuming-resolution test, and literal
 * occurrence counting over a CNF snapshot.
 *
 * The simplifier itself (occurrence index over the live clause
 * database, bounded variable elimination, model reconstruction, DRAT
 * emission) lives in sat/simp.cc as a friend of Solver — it rewrites
 * solver internals in place. Everything here is side-effect free and
 * works on literal spans (a clause in the solver's arena or a plain
 * vector), so the lint passes can analyze a captured Cnf without a
 * solver.
 */

#ifndef OWL_SAT_SIMP_H
#define OWL_SAT_SIMP_H

#include <cstdint>
#include <span>
#include <vector>

#include "sat/solver.h"

namespace owl::sat::simp
{

/**
 * 64-bit Bloom signature of a clause: one bit per literal, hashed by
 * *variable*. If sig(c) has a bit outside sig(d), some variable of c
 * does not occur in d, so c can neither subsume d nor self-subsume
 * against it — an O(1) filter that rejects almost all candidate
 * pairs before the exact test. Hashing the variable rather than the
 * literal code is load-bearing: a self-subsumption pivot occurs
 * *negated* in the subsumee, so a polarity-sensitive signature would
 * veto every self-subsuming pair the exact test could find.
 */
inline uint64_t
clauseSignature(std::span<const Lit> lits)
{
    uint64_t sig = 0;
    for (Lit l : lits)
        sig |= 1ull << (static_cast<uint64_t>(l.var()) % 64);
    return sig;
}

/** Relation of a (small, big) clause pair under subsumption. */
enum class SubsumeRel : uint8_t
{
    None,
    /** small ⊆ big: big is redundant. */
    Subsumes,
    /**
     * small ⊆ big except one literal p ∈ small occurs negated in
     * big: the resolvent on p is big \ {~p}, strictly stronger than
     * big (self-subsuming resolution strengthens big in place).
     */
    SelfSubsumes,
};

/**
 * Exact subsumption / self-subsumption test.
 *
 * @param small candidate subsumer.
 * @param big   candidate subsumee (|big| >= |small| for a hit).
 * @param mark  caller scratch, all zero on entry, sized for every
 *              literal code in big (2 * numVars); returned all zero.
 * @param pivot on SelfSubsumes: the literal of `small` whose negation
 *              should be removed from `big`.
 */
inline SubsumeRel
subsumeCheck(std::span<const Lit> small, std::span<const Lit> big,
             std::vector<uint8_t> &mark, Lit *pivot)
{
    if (small.size() > big.size())
        return SubsumeRel::None;
    for (Lit l : big)
        mark[static_cast<size_t>(l.index())] = 1;
    Lit p;
    SubsumeRel rel = SubsumeRel::Subsumes;
    for (Lit l : small) {
        if (mark[static_cast<size_t>(l.index())])
            continue;
        if (!p.valid() && mark[static_cast<size_t>((~l).index())]) {
            p = l;
            rel = SubsumeRel::SelfSubsumes;
            continue;
        }
        rel = SubsumeRel::None;
        break;
    }
    for (Lit l : big)
        mark[static_cast<size_t>(l.index())] = 0;
    if (rel == SubsumeRel::SelfSubsumes && pivot)
        *pivot = p;
    return rel;
}

/**
 * Occurrence count per literal code over a CNF snapshot (size
 * 2 * cnf.numVars). A variable v with occurrences only at code 2v (or
 * only at 2v+1) is a pure literal; the lint pass reports those and
 * the simplifier eliminates them (zero-resolvent BVE).
 */
inline std::vector<uint32_t>
literalOccurrences(const Cnf &cnf)
{
    std::vector<uint32_t> occ(
        static_cast<size_t>(cnf.numVars) * 2, 0);
    for (const auto &clause : cnf.clauses) {
        for (Lit l : clause) {
            if (l.index() >= 0 &&
                static_cast<size_t>(l.index()) < occ.size()) {
                occ[static_cast<size_t>(l.index())]++;
            }
        }
    }
    return occ;
}

} // namespace owl::sat::simp

#endif // OWL_SAT_SIMP_H
