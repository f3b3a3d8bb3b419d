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
    // The proof sink must be in place before the first clause: the
    // blaster's ctor adds the true literal's unit.
    if (sessionPolicy.checkProofs) {
        solver->setProofSink(&proof);
        solver->setCaptureCnf(&cnf);
    }
    blaster = std::make_unique<BitBlaster>(tt, *solver);
}

IncrementalContext::~IncrementalContext() = default;

void
IncrementalContext::requireOpen(const char *what) const
{
    if (sealed)
        owl_panic("IncrementalContext::", what, " on a sealed context");
}

AckermannManager::Registration
IncrementalContext::registerLeaves(const std::vector<TermRef> &roots)
{
    std::vector<TermRef> vars, reads;
    tt.collectLeaves(roots, vars, reads);
    for (const std::vector<TermRef> *leaves : {&vars, &reads}) {
        for (TermRef t : *leaves) {
            if (leafSeen.insert(t.idx).second)
                modelLeaves.push_back(t);
        }
    }
    // Eager mode pairs each new read against every read known before
    // it, which yields exactly the pair set a from-scratch encode of
    // the union would produce. Lazy mode (default) only registers the
    // reads; check() instantiates violated congruences from model
    // scans.
    obs::ScopedSpan ack_span("smt.ackermann");
    AckermannManager::Registration reg = ack.registerReads(reads);
    istats.ackermannConstraints += reg.congruences.size();
    OWL_COUNTER_ADD("smt.ackermann_constraints", reg.congruences.size());
    ack_span.attr("constraints", reg.congruences.size());
    ack_span.attr("pair_bound", ack.pairBound());
    ack_span.attr("rounds", 0);
    return reg;
}

void
IncrementalContext::encodeReads(const AckermannManager::Registration &reg)
{
    if (!sessionPolicy.eagerAckermann) {
        for (size_t i = 0; i < reg.newReads.size(); i++) {
            blaster->blast(reg.newReads[i]);
            blaster->blast(reg.addresses[i]);
        }
    }
    for (TermRef c : reg.congruences)
        blaster->assertTrue(c);
}

void
IncrementalContext::freezeForCheck()
{
    // Lazy lemmas are clauses over the read and address bits, added
    // after the first solve (BitBlaster::assertCongruence). A session
    // needs no separate pass for them: they are cache outputs.
    if (sealed) {
        if (sessionPolicy.eagerAckermann || ack.pairBound() == 0)
            return;
        solver->setFrozen(blaster->trueLit().var());
        for (TermRef r : ack.registeredReads()) {
            for (TermRef t : {r, tt.node(r).children[0]}) {
                for (sat::Lit l : blaster->blast(t))
                    solver->setFrozen(l.var());
            }
        }
        return;
    }
    // A session's later batches, literalsOf() and assumptions can
    // mention any cache output. Activation literals need nothing
    // here: every check() assumes them, and solve() freezes its
    // assumptions.
    const std::vector<sat::Lit> &log = blaster->cacheOutputLog();
    for (; frozenMark < log.size(); frozenMark++)
        solver->setFrozen(log[frozenMark].var());
}

void
IncrementalContext::assertPermanent(const std::vector<TermRef> &batch)
{
    requireOpen("assertPermanent");
    AckermannManager::Registration reg = registerLeaves(batch);
    size_t cached_before = blaster->cachedTerms();
    obs::ScopedSpan bb_span("smt.bitblast");
    for (TermRef t : batch) {
        owl_assert(tt.width(t) == 1, "assertion must be 1-bit");
        if (tt.isFalse(t)) {
            // Refuted in the term DAG before any clause exists; the
            // verdict is by evaluation (unsat-trivial), not by search.
            rootUnsat = true;
            break;
        }
        blaster->assertTrue(t);
    }
    if (!rootUnsat)
        encodeReads(reg);
    istats.nodesEncoded += blaster->cachedTerms() - cached_before;
    bb_span.attr("sat_vars", static_cast<int64_t>(solver->numVars()));
    bb_span.attr("terms", static_cast<int64_t>(tt.numNodes()));
    blaster->bookStats(bb_span);
}

std::vector<sat::Lit>
IncrementalContext::literalsOf(TermRef t)
{
    requireOpen("literalsOf");
    // No smt.bitblast span: callers ask for hole leaves, which are
    // already blasted. Gates made here, if any, are booked by the
    // next span's bookStats().
    std::span<const sat::Lit> enc = blaster->blast(t);
    return std::vector<sat::Lit>(enc.begin(), enc.end());
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
    requireOpen("addGroup");
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
    AckermannManager::Registration reg = registerLeaves(assertions);
    size_t cached_before = blaster->cachedTerms();

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
        encodeReads(reg);
        fresh = blaster->cachedTerms() - cached_before;
        istats.nodesEncoded += fresh;
        blaster->bookStats(bb_span);
    }
    activations.push_back(act);
    groupIndex.emplace(std::move(key), gid);
    istats.groups++;
    // Counter-track sample for --trace-out: cumulative blast-cache
    // hits, one point per group (a natural low-frequency stride).
    if (obs::counterSamplingEnabled())
        obs::sampleCounter("smt.cache_hits", blaster->stats().cacheHits);
    span.attr("group", gid);
    span.attr("assertions", assertions.size());
    span.attr("new_nodes", fresh);
    span.attr("sat_vars", static_cast<int64_t>(solver->numVars()));
    return gid;
}

IncrementalStats
IncrementalContext::stats() const
{
    IncrementalStats s = istats;
    s.cacheHits = blaster->stats().cacheHits;
    return s;
}

CheckResult
IncrementalContext::check(Model *model, const SolveLimits &limits,
                          CheckStats *stats,
                          const std::vector<sat::Lit> &extra_assumptions)
{
    obs::ScopedSpan span("smt.checkSat");
    span.attr("incremental", 1);
    uint64_t q_start = obs::enabled() ? obs::nowNs() : 0;
    return run(span, q_start, model, limits, stats, extra_assumptions);
}

CheckResult
IncrementalContext::run(obs::ScopedSpan &span, uint64_t q_start,
                        Model *model, const SolveLimits &limits,
                        CheckStats *stats,
                        const std::vector<sat::Lit> &extra_assumptions)
{
    OWL_COUNTER_INC("smt.checks");
    lastConditional = false;
    modelVars = 0;

    sat::Result r = sat::Result::Unsat;
    RefineStats refine;
    uint64_t d_conflicts = 0, d_props = 0;
    bool proof_checked = false;
    size_t proof_steps = 0;
    if (rootUnsat) {
        // No SAT proof to replay, and none is needed: the verdict is
        // by evaluation, not by search.
        if (sessionPolicy.checkProofs)
            OWL_COUNTER_INC("drat.unsat_trivial");
    } else {
        freezeForCheck();
        istats.solveCalls++;
        if (istats.solveCalls > 1)
            istats.clausesReused += solver->liveLearnedCount();
        const sat::Stats pre = solver->stats();

        std::vector<sat::Lit> assumptions = activations;
        assumptions.insert(assumptions.end(), extra_assumptions.begin(),
                           extra_assumptions.end());

        // Solve, then (lazy mode) refine: scan each Sat model for
        // read-consistency violations and assert the violated
        // congruence instances as permanent facts, at literal level
        // over the read and address bits freezeForCheck() froze. The
        // loop runs inside every check(), including lexmin
        // canonicalization probes, so every verdict any caller sees
        // is eager-equivalent.
        solver->setTimeLimit(limits.timeLimit);
        solver->setConflictLimit(limits.conflictLimit);
        solver->setCancelFlag(limits.cancelFlag);
        solver->setPhaseProfiling(sessionPolicy.profileSat);
        r = ack.solveRefining(*solver, *blaster, assumptions, refine);
        istats.ackermannConstraints += refine.lemmas;
        istats.ackermannLemmas += refine.lemmas;
        istats.ackermannRounds += refine.rounds;
        istats.ackermannScans += refine.scans;
        lastConditional =
            r == sat::Result::Unsat && solver->lastUnsatWasConditional();
        const sat::Stats &post = solver->stats();
        d_conflicts = post.conflicts - pre.conflicts;
        d_props = post.propagations - pre.propagations;

        // Certify unconditional Unsat verdicts: the proof (every lemma
        // and deletion since the context was built) replays against
        // the captured input clauses. CEGIS trusts Unsat twice over
        // (verify says "no counterexample" -> the candidate ships), so
        // a proof that does not check is a solver bug and panics
        // instead of returning an unsound verdict. Conditional
        // verdicts carry no proof obligation — the formula was not
        // refuted and no empty clause was emitted — so they are
        // booked separately.
        if (sessionPolicy.checkProofs && r == sat::Result::Unsat) {
            proof_steps = proof.size();
            if (lastConditional) {
                OWL_COUNTER_INC("drat.unsat_conditional");
            } else {
                obs::ScopedSpan drat_span("smt.checkDrat");
                lint::Report drat_report;
                if (!sat::checkDrat(cnf, proof, &drat_report)) {
                    owl_panic("UNSAT verdict failed DRAT proof replay (",
                              proof.size(), " steps, ",
                              cnf.clauses.size(), " clauses):\n",
                              drat_report.toString());
                }
                proof_checked = true;
                drat_span.attr("steps", proof.size());
                OWL_COUNTER_INC("drat.proofs_checked");
                OWL_COUNTER_ADD("drat.proof_steps", proof.size());
            }
        }
        span.attr("sat_vars", static_cast<int64_t>(solver->numVars()));
        span.attr("conflicts", d_conflicts);
    }

    // A sealed context is one query: book its size like perfbench's
    // per-query layers expect. A session's size is not per query.
    if (sealed) {
        OWL_COUNTER_ADD("smt.sat_vars",
                        static_cast<uint64_t>(solver->numVars()));
        OWL_COUNTER_ADD("smt.term_nodes",
                        static_cast<uint64_t>(tt.numNodes()));
    }
    const char *result = rootUnsat ? "unsat-trivial" : resultName(r);
    span.attr("result", result);
    if (obs::enabled()) {
        OWL_HISTOGRAM_RECORD("smt.query_ns", obs::nowNs() - q_start);
        OWL_HISTOGRAM_RECORD("smt.query_conflicts", d_conflicts);
        OWL_HISTOGRAM_RECORD("smt.query_ackermann",
                             istats.ackermannConstraints);
        OWL_HISTOGRAM_RECORD("smt.query_ack_rounds", refine.rounds);
    }
    OWL_TRACE_EVENT("smt", "checkSat result=", result,
                    " sealed=", sealed ? 1 : 0,
                    " groups=", activations.size(),
                    " terms=", tt.numNodes(),
                    " sat_vars=", solver->numVars(),
                    " ackermann=", istats.ackermannConstraints,
                    " ack_rounds=", refine.rounds,
                    " conflicts=", d_conflicts,
                    " propagations=", d_props);
    if (stats) {
        *stats = CheckStats{};
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
    if (r != sat::Result::Sat)
        return r == sat::Result::Unsat ? CheckResult::Unsat
                                       : CheckResult::Unknown;

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
