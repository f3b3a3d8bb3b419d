/**
 * @file
 * DRAT proof logging and forward checking for the CDCL solver.
 *
 * Every clause a CDCL solver learns is a RUP lemma (reverse unit
 * propagation): asserting its negation and propagating over the
 * original formula plus the earlier lemmas must yield a conflict. A
 * DRAT proof is the sequence of those lemma additions interleaved with
 * the solver's clause-database deletions, ending in the empty clause.
 * Replaying the sequence through an independent propagation engine
 * certifies an UNSAT verdict without trusting the solver — the
 * soundness anchor of CEGIS verification, where one wrong Unsat turns
 * into a wrong synthesized circuit (DESIGN.md §8).
 *
 * The checker is forward (checks steps in order, drat-trim's `-f`
 * mode): simpler and deterministic, at the cost of also checking
 * lemmas an offline backward pass could skip. Deletions of clauses
 * currently acting as root units are honored lazily, matching the
 * standard operational DRAT semantics.
 *
 * Proofs are only meaningful for assumption-free solves; the SMT layer
 * never passes assumptions (owl::smt::checkSat bit-blasts each query
 * into a fresh solver), and Solver suppresses empty-clause emission
 * under assumptions.
 *
 * Rule catalogue (diagnostics from checkDrat):
 *   drat.var-bounds       proof step names a variable outside the CNF
 *   drat.delete-unknown   deletion of a clause not currently live
 *   drat.step-not-rup     an added lemma is not RUP at its position
 *   drat.no-empty-clause  proof ends without deriving a contradiction
 */

#ifndef OWL_SAT_DRAT_H
#define OWL_SAT_DRAT_H

#include <initializer_list>
#include <span>
#include <vector>

#include "lint/diagnostic.h"
#include "sat/solver.h"

namespace owl::sat
{

/** One proof step: a lemma addition or a clause deletion. */
struct DratStep
{
    bool isDelete = false;
    /** The clause's literals; empty with !isDelete = the empty clause. */
    std::vector<Lit> lits;
};

/**
 * A DRAT proof: the ordered add/delete step sequence one Solver
 * emitted for one formula. Attach to a solver with setProofSink()
 * before adding the formula; check against the matching captured Cnf
 * with checkDrat().
 */
struct DratProof
{
    std::vector<DratStep> steps;

    void
    addClause(std::span<const Lit> lits)
    {
        steps.push_back(
            DratStep{false, std::vector<Lit>(lits.begin(), lits.end())});
    }
    void
    addClause(std::initializer_list<Lit> lits)
    {
        addClause(std::span<const Lit>(lits.begin(), lits.size()));
    }
    void
    deleteClause(std::span<const Lit> lits)
    {
        steps.push_back(
            DratStep{true, std::vector<Lit>(lits.begin(), lits.end())});
    }
    void
    deleteClause(std::initializer_list<Lit> lits)
    {
        deleteClause(std::span<const Lit>(lits.begin(), lits.size()));
    }
    /** True once an empty-clause addition has been recorded. */
    bool
    hasEmptyClause() const
    {
        for (const DratStep &s : steps) {
            if (!s.isDelete && s.lits.empty())
                return true;
        }
        return false;
    }
    size_t size() const { return steps.size(); }
    bool empty() const { return steps.empty(); }
};

/**
 * Forward-check a DRAT proof against the formula it was produced for.
 * Returns true iff every step verifies and a contradiction is derived
 * (certifying the formula unsatisfiable). Diagnostics for each failure
 * are appended to the report when one is given.
 */
bool checkDrat(const Cnf &cnf, const DratProof &proof,
               lint::Report *report = nullptr);

} // namespace owl::sat

#endif // OWL_SAT_DRAT_H
