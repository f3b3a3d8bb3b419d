#include "smt/solver.h"

#include <algorithm>
#include <memory>

#include "base/logging.h"
#include "lint/diagnostic.h"
#include "obs/obs.h"
#include "sat/drat.h"
#include "smt/ackermann.h"
#include "smt/bitblast.h"

namespace owl::smt
{

BitVec
Model::varValue(const TermTable &tt, int var_id) const
{
    TermRef t = tt.varTerm(var_id);
    auto it = leafValues.find(t.idx);
    if (it != leafValues.end())
        return it->second;
    return BitVec(tt.varInfo(var_id).width);
}

Assignment
Model::toAssignment(const TermTable &tt) const
{
    Assignment asg;
    for (const auto &[idx, val] : leafValues) {
        const Node &n = tt.node(TermRef{idx});
        if (n.op == Op::Var) {
            asg.setVar(n.a, val);
        } else if (n.op == Op::BaseRead) {
            // Only concrete-address base reads can be replayed into an
            // Assignment; symbolic-address reads need the containing
            // query's other leaves to resolve, which evalTerm does via
            // the address child.
            if (tt.isConst(n.children[0])) {
                asg.setMemWord(n.a,
                               tt.constValue(n.children[0]).toUint64(),
                               val);
            }
        }
    }
    return asg;
}

namespace
{

const char *
checkResultName(sat::Result r)
{
    switch (r) {
      case sat::Result::Sat: return "sat";
      case sat::Result::Unsat: return "unsat";
      case sat::Result::Unknown: return "unknown";
    }
    return "?";
}

} // namespace

sat::Solver::Options
SolverPolicy::satOptions() const
{
    sat::Solver::Options o;
    o.simp.enabled = preprocess;
    return o;
}

CheckResult
checkSat(TermTable &tt, const std::vector<TermRef> &assertions,
         Model *model, const SolveLimits &limits, CheckStats *stats)
{
    obs::ScopedSpan span("smt.checkSat");
    OWL_COUNTER_INC("smt.checks");
    uint64_t q_start = obs::enabled() ? obs::nowNs() : 0;

    // Gather leaves to (a) register the memory base reads for
    // Ackermann congruence and (b) know what to extract into the
    // model.
    std::vector<TermRef> vars, base_reads;
    tt.collectLeaves(assertions, vars, base_reads);

    // Ackermann congruence: reads of the same memory base at equal
    // addresses return equal values. Eager mode instantiates the full
    // pair set here (constant-address pairs fold away inside
    // mkImplies/mkEq); the default lazy mode only registers the reads
    // and instantiates violated instances from model scans below.
    const SolverPolicy &policy = limits.solver;
    AckermannManager ack(tt, policy.eagerAckermann);
    AckermannManager::Registration reg;
    std::vector<TermRef> all = assertions;
    size_t n_ack = 0;
    {
        obs::ScopedSpan ack_span("smt.ackermann");
        reg = ack.registerReads(base_reads);
        for (TermRef cong : reg.congruences) {
            all.push_back(cong);
            n_ack++;
        }
        ack_span.attr("constraints", n_ack);
        ack_span.attr("pair_bound", ack.pairBound());
        ack_span.attr("rounds", 0);
    }
    OWL_COUNTER_ADD("smt.ackermann_constraints", n_ack);
    // With no same-memory pair there is nothing to refine on.
    const bool lazy = !policy.eagerAckermann && ack.pairBound() > 0;

    // One solver and one blaster for the whole query. Lazy mode
    // refines in place (AckermannManager::solveRefining): each round
    // asserts its violated congruences into the live solver, which
    // keeps its simplified database, learned clauses and phases. So
    // that a lemma never mentions an eliminated variable, every bit of
    // each registered read and address is frozen before the first
    // solve, and lemmas are encoded at literal level over exactly
    // those bits (BitBlaster::assertCongruence). Nothing else is
    // frozen: after the first solve checkSat blasts no term, which
    // solveRefining asserts (DESIGN.md §14.2).
    // Heap-allocated on purpose, like IncrementalContext's solver: a
    // stack solver here raised serve-mix peak RSS from 198 to 202 MB
    // (glibc malloc, 4-CPU x86-64) with identical work.
    const auto solver_owner =
        std::make_unique<sat::Solver>(policy.satOptions());
    sat::Solver &solver = *solver_owner;
    if (limits.timeLimit.count() > 0)
        solver.setTimeLimit(limits.timeLimit);
    if (limits.conflictLimit > 0)
        solver.setConflictLimit(limits.conflictLimit);
    solver.setCancelFlag(limits.cancelFlag);
    solver.setPhaseProfiling(policy.profileSat);
    // Proof checking replays the proof against exactly the clauses
    // the solver saw, lemma clauses included.
    sat::Cnf cnf;
    sat::DratProof proof;
    if (policy.checkProofs) {
        solver.setCaptureCnf(&cnf);
        solver.setProofSink(&proof);
    }
    BitBlaster blaster(tt, solver);
    bool trivially_false = false;
    {
        obs::ScopedSpan bb_span("smt.bitblast");
        for (TermRef a : all) {
            owl_assert(tt.width(a) == 1, "assertion must be 1-bit");
            if (tt.isFalse(a)) {
                trivially_false = true;
                break;
            }
            blaster.assertTrue(a);
        }
        // Lazy mode: the model scan decodes every registered read and
        // its address, and lemmas are built over their bits.
        if (lazy && !trivially_false) {
            solver.setFrozen(blaster.trueLit().var());
            for (size_t i = 0; i < reg.newReads.size(); i++) {
                for (TermRef t : {reg.newReads[i], reg.addresses[i]}) {
                    for (sat::Lit l : blaster.blast(t))
                        solver.setFrozen(l.var());
                }
            }
        }
        bb_span.attr("sat_vars", static_cast<int64_t>(solver.numVars()));
        bb_span.attr("terms", static_cast<int64_t>(tt.numNodes()));
        blaster.bookStats(bb_span);
    }
    sat::Result r = sat::Result::Unknown;
    RefineStats refine;
    if (!trivially_false) {
        r = ack.solveRefining(solver, blaster, {}, refine);
        n_ack += refine.lemmas;
    }
    OWL_COUNTER_ADD("smt.sat_vars",
                    static_cast<uint64_t>(solver.numVars()));
    OWL_COUNTER_ADD("smt.term_nodes",
                    static_cast<uint64_t>(tt.numNodes()));

    if (trivially_false) {
        // A constant-false assertion is refuted in the term DAG before
        // any clause exists; there is no SAT proof to replay, and none
        // is needed — the verdict is by evaluation, not by search.
        if (policy.checkProofs)
            OWL_COUNTER_INC("drat.unsat_trivial");
        span.attr("result", "unsat-trivial");
        if (obs::enabled()) {
            OWL_HISTOGRAM_RECORD("smt.query_ns",
                                 obs::nowNs() - q_start);
            OWL_HISTOGRAM_RECORD("smt.query_conflicts", 0);
            OWL_HISTOGRAM_RECORD("smt.query_ackermann", n_ack);
            OWL_HISTOGRAM_RECORD("smt.query_ack_rounds", 0);
        }
        return CheckResult::Unsat;
    }

    // Certify Unsat verdicts: replay the recorded DRAT proof through
    // the independent forward checker. CEGIS trusts Unsat twice over
    // (verify says "no counterexample" -> the candidate ships), so a
    // proof that does not check is treated as a solver bug and panics
    // instead of returning an unsound verdict. Conditional Unsat
    // (under assumptions; cannot occur on this assumption-free path,
    // but the routing is shared with the incremental context) carries
    // no proof obligation and is booked separately.
    bool proof_checked = false;
    const sat::Stats &run_stats = solver.stats();
    bool unsat_conditional =
        r == sat::Result::Unsat && solver.lastUnsatWasConditional();
    if (policy.checkProofs && r == sat::Result::Unsat) {
        if (unsat_conditional) {
            OWL_COUNTER_INC("drat.unsat_conditional");
        } else {
            obs::ScopedSpan drat_span("smt.checkDrat");
            lint::Report drat_report;
            if (!sat::checkDrat(cnf, proof, &drat_report)) {
                owl_panic("UNSAT verdict failed DRAT proof replay (",
                          proof.size(), " steps, ", cnf.clauses.size(),
                          " clauses):\n", drat_report.toString());
            }
            proof_checked = true;
            drat_span.attr("steps", proof.size());
            OWL_COUNTER_INC("drat.proofs_checked");
            OWL_COUNTER_ADD("drat.proof_steps", proof.size());
        }
    }
    span.attr("result", checkResultName(r));
    span.attr("sat_vars", static_cast<int64_t>(solver.numVars()));
    span.attr("conflicts", run_stats.conflicts);
    if (obs::enabled()) {
        OWL_HISTOGRAM_RECORD("smt.query_ns", obs::nowNs() - q_start);
        OWL_HISTOGRAM_RECORD("smt.query_conflicts",
                             run_stats.conflicts);
        OWL_HISTOGRAM_RECORD("smt.query_ackermann", n_ack);
        OWL_HISTOGRAM_RECORD("smt.query_ack_rounds", refine.rounds);
    }
    OWL_TRACE_EVENT("smt", "checkSat result=", checkResultName(r),
                    " assertions=", assertions.size(),
                    " terms=", tt.numNodes(),
                    " sat_vars=", solver.numVars(),
                    " ackermann=", n_ack,
                    " ack_rounds=", refine.rounds,
                    " conflicts=", run_stats.conflicts,
                    " propagations=", run_stats.propagations);
    if (stats) {
        stats->satVars = solver.numVars();
        stats->ackermannConstraints = n_ack;
        stats->ackermannLemmas = refine.lemmas;
        stats->ackermannRounds = refine.rounds;
        stats->conflicts = run_stats.conflicts;
        stats->propagations = run_stats.propagations;
        stats->termNodes = tt.numNodes();
        stats->proofChecked = proof_checked;
        stats->proofSteps = proof.size();
        stats->unsatConditional = unsat_conditional;
    }
    switch (r) {
      case sat::Result::Unsat:
        return CheckResult::Unsat;
      case sat::Result::Unknown:
        return CheckResult::Unknown;
      case sat::Result::Sat:
        break;
    }

    if (model) {
        model->leafValues.clear();
        for (TermRef v : vars)
            model->leafValues.emplace(v.idx, blaster.modelValue(v));
        for (TermRef b : base_reads)
            model->leafValues.emplace(b.idx, blaster.modelValue(b));
    }
    return CheckResult::Sat;
}

} // namespace owl::smt
