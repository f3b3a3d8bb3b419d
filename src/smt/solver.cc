#include "smt/solver.h"

#include <algorithm>

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
    const bool eager = policy.eagerAckermann;
    AckermannManager ack(tt);
    AckermannManager::Registration reg;
    std::vector<TermRef> all = assertions;
    size_t n_ack = 0;
    {
        obs::ScopedSpan ack_span("smt.ackermann");
        reg = ack.registerReads(base_reads, eager);
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
    const bool lazy = !eager && ack.pairBound() > 0;

    // Assumption-free solve with (lazy mode) restart-based
    // refinement: each round re-encodes the assertions plus every
    // lemma learned so far into a FRESH solver, so the CNF of round k
    // is exactly the eager encoding restricted to the instantiated
    // pair subset. Restarting (rather than asserting lemmas into the
    // live solver) keeps pre/inprocessing unrestricted: an in-place
    // lemma can mention the cached encoding of any subterm, and
    // freezing the whole escape set to protect it measurably defeats
    // variable elimination. Re-blasting is cheap next to search, and
    // the converged round's CNF/proof pair is exactly what the DRAT
    // checker needs. Terminates because every round instantiates at
    // least one new pair from the finite pair set (smt/ackermann.h).
    const sat::Solver::Options solver_opts = policy.satOptions();

    std::unique_ptr<sat::Solver> solver;
    std::unique_ptr<BitBlaster> blaster;
    sat::Cnf cnf;
    sat::DratProof proof;
    sat::Result r = sat::Result::Unknown;
    bool trivially_false = false;
    std::vector<TermRef> lazy_lemmas;
    std::vector<bool> phase_hints;
    uint64_t ack_rounds = 0, ack_scans = 0, ack_lemmas = 0;
    // Pre-assert the caller's cached congruence pairs (violated by
    // some earlier, structurally similar query) so round 1 already
    // contains them: repeated verifies of one instruction then
    // converge without re-running the refinement restarts that first
    // discovered the pairs.
    if (lazy && limits.ackermannSeeds) {
        std::vector<TermRef> seeded =
            ack.instantiateSeeds(*limits.ackermannSeeds);
        lazy_lemmas.insert(lazy_lemmas.end(), seeded.begin(),
                           seeded.end());
        n_ack += seeded.size();
        OWL_COUNTER_ADD("smt.ackermann_constraints", seeded.size());
    }
    while (true) {
        solver = std::make_unique<sat::Solver>(solver_opts);
        if (limits.timeLimit.count() > 0)
            solver->setTimeLimit(limits.timeLimit);
        if (limits.conflictLimit > 0)
            solver->setConflictLimit(limits.conflictLimit);
        solver->setCancelFlag(limits.cancelFlag);
        solver->setPhaseProfiling(policy.profileSat);
        cnf = sat::Cnf();
        proof = sat::DratProof();
        // Proof checking replays the proof against exactly the
        // clauses the solver saw.
        if (policy.checkProofs) {
            solver->setCaptureCnf(&cnf);
            solver->setProofSink(&proof);
        }
        blaster = std::make_unique<BitBlaster>(tt, *solver);
        {
            obs::ScopedSpan bb_span("smt.bitblast");
            for (TermRef a : all) {
                owl_assert(tt.width(a) == 1,
                           "assertion must be 1-bit");
                if (tt.isFalse(a)) {
                    trivially_false = true;
                    break;
                }
                blaster->assertTrue(a);
            }
            if (!trivially_false) {
                for (TermRef cong : lazy_lemmas)
                    blaster->assertTrue(cong);
                // Lazy mode: the model scan decodes every registered
                // read and its address, so their circuits must exist
                // before the solve.
                if (lazy) {
                    for (size_t i = 0; i < reg.newReads.size(); i++) {
                        blaster->blast(reg.newReads[i]);
                        blaster->blast(reg.addresses[i]);
                    }
                }
            }
            bb_span.attr("sat_vars",
                         static_cast<int64_t>(solver->numVars()));
            bb_span.attr("terms",
                         static_cast<int64_t>(tt.numNodes()));
            blaster->bookStats(bb_span);
        }
        if (trivially_false)
            break;
        // Warm-start refinement rounds from the previous round's
        // model: the shared encoding prefix has identical variable
        // numbering, so search only repairs around the new lemmas.
        if (!phase_hints.empty())
            solver->setPhaseHints(phase_hints);

        r = solver->solve();
        if (r != sat::Result::Sat || !lazy)
            break;
        ack_scans++;
        std::vector<TermRef> lemmas = ack.scanModel(
            [&](TermRef t) { return blaster->modelValue(t); });
        if (lemmas.empty())
            break; // congruence-clean: genuinely Sat
        phase_hints.resize(static_cast<size_t>(solver->numVars()));
        for (int v = 0; v < solver->numVars(); v++)
            phase_hints[v] = solver->modelValue(v);
        obs::ScopedSpan ack_span("smt.ackermann");
        lazy_lemmas.insert(lazy_lemmas.end(), lemmas.begin(),
                           lemmas.end());
        n_ack += lemmas.size();
        ack_lemmas += lemmas.size();
        ack_rounds++;
        OWL_COUNTER_ADD("smt.ackermann_constraints", lemmas.size());
        ack_span.attr("constraints", lemmas.size());
        ack_span.attr("rounds", ack_rounds);
    }
    OWL_COUNTER_ADD("smt.sat_vars",
                    static_cast<uint64_t>(solver->numVars()));
    OWL_COUNTER_ADD("smt.term_nodes",
                    static_cast<uint64_t>(tt.numNodes()));
    OWL_COUNTER_ADD("smt.ackermann.scans", ack_scans);
    OWL_COUNTER_ADD("smt.ackermann.rounds", ack_rounds);
    if (lazy && limits.ackermannSeeds)
        ack.exportInstantiated(*limits.ackermannSeeds);

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
            OWL_HISTOGRAM_RECORD("smt.query_ack_rounds", ack_rounds);
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
    const sat::Stats &run_stats = solver->stats();
    bool unsat_conditional =
        r == sat::Result::Unsat && solver->lastUnsatWasConditional();
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
    span.attr("sat_vars", static_cast<int64_t>(solver->numVars()));
    span.attr("conflicts", run_stats.conflicts);
    if (obs::enabled()) {
        OWL_HISTOGRAM_RECORD("smt.query_ns", obs::nowNs() - q_start);
        OWL_HISTOGRAM_RECORD("smt.query_conflicts",
                             run_stats.conflicts);
        OWL_HISTOGRAM_RECORD("smt.query_ackermann", n_ack);
        OWL_HISTOGRAM_RECORD("smt.query_ack_rounds", ack_rounds);
    }
    OWL_TRACE_EVENT("smt", "checkSat result=", checkResultName(r),
                    " assertions=", assertions.size(),
                    " terms=", tt.numNodes(),
                    " sat_vars=", solver->numVars(),
                    " ackermann=", n_ack,
                    " ack_rounds=", ack_rounds,
                    " conflicts=", run_stats.conflicts,
                    " propagations=", run_stats.propagations);
    if (stats) {
        stats->satVars = solver->numVars();
        stats->ackermannConstraints = n_ack;
        stats->ackermannLemmas = ack_lemmas;
        stats->ackermannRounds = ack_rounds;
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
            model->leafValues.emplace(v.idx, blaster->modelValue(v));
        for (TermRef b : base_reads)
            model->leafValues.emplace(b.idx, blaster->modelValue(b));
    }
    return CheckResult::Sat;
}

} // namespace owl::smt
