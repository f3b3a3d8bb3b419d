#include "smt/incremental.h"

#include <algorithm>

#include "base/logging.h"
#include "lint/diagnostic.h"
#include "obs/obs.h"

namespace owl::smt
{

namespace
{

const char *
resultName(sat::Result r)
{
    switch (r) {
      case sat::Result::Sat: return "sat";
      case sat::Result::Unsat: return "unsat";
      case sat::Result::Unknown: return "unknown";
    }
    return "?";
}

} // namespace

IncrementalContext::IncrementalContext(TermTable &tt_in,
                                       const SolverPolicy &p)
    : tt(tt_in), sessionPolicy(p),
      solver(std::make_unique<sat::Solver>(p.satOptions())),
      ack(tt_in, p.eagerAckermann)
{
    // The session maintains the freeze discipline pre/inprocessing
    // needs, so it honours the policy's preprocess flag. The proof
    // sink must be in place before the first clause.
    if (sessionPolicy.checkProofs) {
        solver->setProofSink(&proof);
        solver->setCaptureCnf(&cnf);
    }
    blaster = std::make_unique<BitBlaster>(tt, *solver);
    // The blaster's ctor allocated the shared true literal.
    freezeOutputs();
}

IncrementalContext::~IncrementalContext() = default;

uint64_t
IncrementalContext::reachableTerms(const std::vector<TermRef> &roots) const
{
    std::unordered_set<uint32_t> visited;
    std::vector<uint32_t> stack;
    for (TermRef r : roots) {
        if (r.valid() && visited.insert(r.idx).second)
            stack.push_back(r.idx);
    }
    while (!stack.empty()) {
        uint32_t cur = stack.back();
        stack.pop_back();
        for (TermRef c : tt.node(TermRef{cur}).children) {
            if (visited.insert(c.idx).second)
                stack.push_back(c.idx);
        }
    }
    return visited.size();
}

void
IncrementalContext::registerLeaves(const std::vector<TermRef> &roots)
{
    std::vector<TermRef> vars, reads;
    tt.collectLeaves(roots, vars, reads);
    for (TermRef v : vars) {
        if (leafSeen.insert(v.idx).second)
            modelLeaves.push_back(v);
    }
    // Incremental Ackermann via the shared manager. Eager mode pairs
    // each new read against every read known before it (old and new
    // alike), which yields exactly the pair set a from-scratch encode
    // of the union would produce; congruence is a property of the
    // uninterpreted read function, not of any one query, so the
    // constraints are permanent even when the reads themselves only
    // occur inside activation-guarded groups. Lazy mode (default)
    // only registers the reads — check() instantiates violated
    // congruences from model scans — but must pre-blast the read and
    // address circuits so (a) the scan can decode their model values
    // and (b) their output literals enter the cache-output log and
    // get frozen by the caller's freezeOutputs() before simp could
    // eliminate a variable a future lemma clause mentions.
    AckermannManager::Registration reg = ack.registerReads(reads);
    for (TermRef r : reg.newReads) {
        if (leafSeen.insert(r.idx).second)
            modelLeaves.push_back(r);
    }
    if (!sessionPolicy.eagerAckermann) {
        for (size_t i = 0; i < reg.newReads.size(); i++) {
            blaster->blast(reg.newReads[i]);
            blaster->blast(reg.addresses[i]);
        }
    }
    for (TermRef c : reg.congruences) {
        blaster->assertTrue(c);
        istats.ackermannConstraints++;
    }
    OWL_COUNTER_ADD("smt.ackermann_constraints",
                    reg.congruences.size());
}

void
IncrementalContext::freezeOutputs()
{
    // Freeze the literals future clauses/assumptions can mention —
    // the blast cache's output vectors — so the pre/inprocessing pass
    // never eliminates them.
    const std::vector<sat::Lit> &log = blaster->cacheOutputLog();
    for (; frozenMark < log.size(); frozenMark++)
        solver->setFrozen(log[frozenMark].var());
}

void
IncrementalContext::assertPermanent(TermRef t)
{
    owl_assert(tt.width(t) == 1, "assertion must be 1-bit");
    if (tt.isFalse(t)) {
        // Refuted in the term DAG before any clause exists; the
        // verdict is by evaluation (unsat-trivial), not by search.
        rootUnsat = true;
        return;
    }
    size_t cached_before = blaster->cachedTerms();
    uint64_t reachable = reachableTerms({t});
    {
        obs::ScopedSpan bb_span("smt.bitblast");
        blaster->assertTrue(t);
        uint64_t fresh = blaster->cachedTerms() - cached_before;
        istats.cacheHits += reachable - fresh;
        istats.nodesEncoded += fresh;
        registerLeaves({t});
        blaster->bookStats(bb_span);
    }
    freezeOutputs();
}

std::vector<sat::Lit>
IncrementalContext::literalsOf(TermRef t)
{
    // No smt.bitblast span: callers ask for hole leaves, which are
    // already blasted. Gates made here, if any, are booked by the
    // next span's bookStats().
    std::span<const sat::Lit> enc = blaster->blast(t);
    std::vector<sat::Lit> lits(enc.begin(), enc.end());
    freezeOutputs();
    return lits;
}

int
IncrementalContext::beginReuse()
{
    gen++;
    istats.reuses++;
    OWL_COUNTER_INC("smt.inc.session_reuses");
    return gen;
}

int
IncrementalContext::addGroup(const std::vector<TermRef> &assertions)
{
    obs::ScopedSpan span("smt.inc.addGroup");
    // Warm-session replays re-derive counterexample constraints the
    // session already carries; hash-consing makes them TermRef-equal,
    // so an exact batch match can be answered with the existing group
    // (its activation literal is already in every check()'s
    // assumptions — semantically a no-op, but it keeps the assumption
    // set and clause database from growing without bound).
    std::vector<uint32_t> key;
    key.reserve(assertions.size());
    for (TermRef t : assertions)
        key.push_back(t.idx);
    auto hit = groupIndex.find(key);
    if (hit != groupIndex.end()) {
        istats.groupsDeduped++;
        OWL_COUNTER_INC("smt.inc.groups_deduped");
        span.attr("group", hit->second);
        span.attr("deduped", 1);
        return hit->second;
    }
    int gid = static_cast<int>(activations.size());
    size_t cached_before = blaster->cachedTerms();
    uint64_t reachable = reachableTerms(assertions);

    int avar = solver->newVar();
    sat::Lit act(avar, false);
    actVarToGroup.emplace(avar, gid);
    uint64_t fresh;
    {
        obs::ScopedSpan bb_span("smt.bitblast");
        for (TermRef t : assertions) {
            owl_assert(tt.width(t) == 1, "assertion must be 1-bit");
            // A constant-false assertion blasts to the shared false
            // literal; (~act v false) simplifies to the unit ~act,
            // which correctly makes every later check() conditionally
            // Unsat.
            sat::Lit l = blaster->blast(t)[0];
            solver->addClause(~act, l);
        }
        fresh = blaster->cachedTerms() - cached_before;
        istats.cacheHits += reachable - fresh;
        istats.nodesEncoded += fresh;
        registerLeaves(assertions);
        blaster->bookStats(bb_span);
    }
    freezeOutputs();
    // The activation literal rides in every later check()'s assumption
    // set.
    solver->setFrozen(avar);
    activations.push_back(act);
    groupIndex.emplace(std::move(key), gid);
    istats.groups++;
    // Counter-track sample for --trace-out: cumulative blast-cache
    // hits, one point per group (a natural low-frequency stride).
    if (obs::counterSamplingEnabled())
        obs::sampleCounter("smt.cache_hits", istats.cacheHits);
    span.attr("group", gid);
    span.attr("assertions", assertions.size());
    span.attr("new_nodes", fresh);
    span.attr("sat_vars", static_cast<int64_t>(solver->numVars()));
    return gid;
}

CheckResult
IncrementalContext::check(Model *model, const SolveLimits &limits,
                          CheckStats *stats,
                          const std::vector<sat::Lit> &extra_assumptions)
{
    obs::ScopedSpan span("smt.checkSat");
    span.attr("incremental", 1);
    OWL_COUNTER_INC("smt.checks");
    uint64_t q_start = obs::enabled() ? obs::nowNs() : 0;

    lastConditional = false;
    modelVars = 0;
    if (rootUnsat) {
        if (sessionPolicy.checkProofs)
            OWL_COUNTER_INC("drat.unsat_trivial");
        span.attr("result", "unsat-trivial");
        if (stats) {
            *stats = CheckStats{};
            stats->satVars = solver->numVars();
            stats->termNodes = tt.numNodes();
            stats->ackermannConstraints = istats.ackermannConstraints;
        }
        if (obs::enabled()) {
            OWL_HISTOGRAM_RECORD("smt.query_ns",
                                 obs::nowNs() - q_start);
            OWL_HISTOGRAM_RECORD("smt.query_conflicts", 0);
            OWL_HISTOGRAM_RECORD("smt.query_ackermann",
                                 istats.ackermannConstraints);
            OWL_HISTOGRAM_RECORD("smt.query_ack_rounds", 0);
        }
        return CheckResult::Unsat;
    }

    istats.solveCalls++;
    if (istats.solveCalls > 1)
        istats.clausesReused += solver->liveLearnedCount();

    const sat::Stats pre = solver->stats();

    std::vector<sat::Lit> assumptions = activations;
    assumptions.insert(assumptions.end(), extra_assumptions.begin(),
                       extra_assumptions.end());

    // Solve, then (lazy mode) refine: scan each Sat model for
    // read-consistency violations and assert the violated congruence
    // instances as permanent session facts, at literal level over the
    // read and address bits registerLeaves() froze. The loop runs
    // inside every check(), including lexmin canonicalization probes,
    // so every verdict any caller sees is eager-equivalent.
    solver->setTimeLimit(limits.timeLimit);
    solver->setConflictLimit(limits.conflictLimit);
    solver->setCancelFlag(limits.cancelFlag);
    solver->setPhaseProfiling(sessionPolicy.profileSat);
    RefineStats refine;
    sat::Result r = ack.solveRefining(*solver, *blaster, assumptions,
                                      refine);
    istats.ackermannConstraints += refine.lemmas;
    istats.ackermannLemmas += refine.lemmas;
    istats.ackermannRounds += refine.rounds;
    istats.ackermannScans += refine.scans;
    lastConditional =
        r == sat::Result::Unsat && solver->lastUnsatWasConditional();

    // Certify unconditional Unsat verdicts: the session-long proof
    // (every lemma and deletion since the context was built) replays
    // against the captured input clauses. Conditional verdicts carry
    // no proof obligation — the formula was not refuted and no empty
    // clause was emitted — so they are booked separately.
    bool proof_checked = false;
    size_t proof_steps = 0;
    if (sessionPolicy.checkProofs && r == sat::Result::Unsat) {
        proof_steps = proof.size();
        if (lastConditional) {
            OWL_COUNTER_INC("drat.unsat_conditional");
        } else {
            obs::ScopedSpan drat_span("smt.checkDrat");
            lint::Report drat_report;
            if (!sat::checkDrat(cnf, proof, &drat_report)) {
                owl_panic(
                    "UNSAT verdict failed DRAT proof replay (",
                    proof.size(), " steps, ", cnf.clauses.size(),
                    " clauses, incremental session):\n",
                    drat_report.toString());
            }
            proof_checked = true;
            drat_span.attr("steps", proof.size());
            OWL_COUNTER_INC("drat.proofs_checked");
            OWL_COUNTER_ADD("drat.proof_steps", proof.size());
        }
    }

    const sat::Stats &post = solver->stats();
    uint64_t d_conflicts = post.conflicts - pre.conflicts;
    uint64_t d_props = post.propagations - pre.propagations;
    span.attr("result", resultName(r));
    span.attr("sat_vars", static_cast<int64_t>(solver->numVars()));
    span.attr("conflicts", d_conflicts);
    if (obs::enabled()) {
        OWL_HISTOGRAM_RECORD("smt.query_ns", obs::nowNs() - q_start);
        OWL_HISTOGRAM_RECORD("smt.query_conflicts", d_conflicts);
        OWL_HISTOGRAM_RECORD("smt.query_ackermann",
                             istats.ackermannConstraints);
        OWL_HISTOGRAM_RECORD("smt.query_ack_rounds", refine.rounds);
    }
    OWL_TRACE_EVENT("smt", "checkSat(incremental) result=",
                    resultName(r), " groups=", activations.size(),
                    " terms=", tt.numNodes(),
                    " sat_vars=", solver->numVars(),
                    " ack_rounds=", refine.rounds,
                    " conflicts=", d_conflicts,
                    " propagations=", d_props);
    if (stats) {
        stats->satVars = solver->numVars();
        stats->ackermannConstraints = istats.ackermannConstraints;
        stats->ackermannLemmas = refine.lemmas;
        stats->ackermannRounds = refine.rounds;
        stats->conflicts = d_conflicts;
        stats->propagations = d_props;
        stats->termNodes = tt.numNodes();
        stats->proofChecked = proof_checked;
        stats->proofSteps = proof_steps;
        stats->unsatConditional = lastConditional;
    }
    switch (r) {
      case sat::Result::Unsat:
        return CheckResult::Unsat;
      case sat::Result::Unknown:
        return CheckResult::Unknown;
      case sat::Result::Sat:
        break;
    }

    modelVars = solver->numVars();
    if (model) {
        model->leafValues.clear();
        for (TermRef t : modelLeaves)
            model->leafValues.emplace(t.idx, blaster->modelValue(t));
    }
    return CheckResult::Sat;
}

std::optional<bool>
IncrementalContext::modelValue(sat::Lit l) const
{
    if (l.var() >= modelVars)
        return std::nullopt;
    return solver->modelValue(l.var()) != l.negated();
}

std::vector<int>
IncrementalContext::failedGroups() const
{
    std::vector<int> groups;
    if (!lastConditional)
        return groups;
    for (sat::Lit l : solver->failedAssumptions()) {
        auto it = actVarToGroup.find(l.var());
        if (it != actVarToGroup.end())
            groups.push_back(it->second);
    }
    std::sort(groups.begin(), groups.end());
    groups.erase(std::unique(groups.begin(), groups.end()),
                 groups.end());
    return groups;
}

} // namespace owl::smt
