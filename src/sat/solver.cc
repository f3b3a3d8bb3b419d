#include "sat/solver.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "base/logging.h"
#include "lint/diagnostic.h"
#include "obs/obs.h"
#include "sat/drat.h"

namespace owl::sat
{

namespace
{

/**
 * Flushes one solve() call's Stats deltas into the obs registry and
 * times the call as a `sat.solve` span (nested under whatever span the
 * caller has open, e.g. smt.checkSat). Destructor-driven so every
 * return path is covered. Costs one branch per solve when obs is
 * disabled; the CDCL loop itself is untouched.
 */
class SolveObs
{
  public:
    SolveObs(Solver &solver, const Stats &current,
             obs::LocalHistogram &lbd, const Solver::PhaseProfile &phases)
        : solver(solver), stats(current), before(current), lbd(lbd),
          phases(phases), phasesBefore(phases),
          simpBefore(solver.simpStats()), span("sat.solve")
    {
    }

    ~SolveObs()
    {
        if (!obs::enabled())
            return;
        uint64_t conflicts = stats.conflicts - before.conflicts;
        uint64_t props = stats.propagations - before.propagations;
        OWL_COUNTER_INC("sat.solves");
        OWL_COUNTER_ADD("sat.conflicts", conflicts);
        OWL_COUNTER_ADD("sat.decisions",
                        stats.decisions - before.decisions);
        OWL_COUNTER_ADD("sat.propagations", props);
        OWL_COUNTER_ADD("sat.restarts",
                        stats.restarts - before.restarts);
        OWL_COUNTER_ADD("sat.learned_clauses",
                        stats.learnedClauses - before.learnedClauses);
        OWL_COUNTER_ADD("sat.learned_literals",
                        stats.learnedLiterals - before.learnedLiterals);
        OWL_COUNTER_ADD("sat.learned_deleted",
                        stats.learnedDeleted - before.learnedDeleted);
        span.attr("conflicts", conflicts);
        span.attr("propagations", props);
        // Learned-clause LBD distribution: accumulated without
        // atomics in the CDCL loop, merged into the shared histogram
        // once per solve.
        if (lbd.count) {
            static obs::Histogram &lbd_hist =
                obs::Registry::instance().histogram("sat.lbd");
            lbd_hist.merge(lbd);
            lbd.clear();
        }
        // Phase profiler deltas (only when --profile-sat ran this
        // call). Dynamic counter lookups are fine here: once per
        // solve, never in the CDCL loop.
        static const char *const phase_names[Solver::kNumPhases] = {
            "propagate", "analyze", "decide", "reduce_db", "restart",
            "simplify"};
        obs::Registry &reg = obs::Registry::instance();
        for (int p = 0; p < Solver::kNumPhases; p++) {
            uint64_t calls = phases.calls[p] - phasesBefore.calls[p];
            if (calls == 0)
                continue;
            std::string base =
                std::string("sat.phase.") + phase_names[p];
            reg.counter(base + ".ns")
                .add(phases.ns[p] - phasesBefore.ns[p]);
            reg.counter(base + ".samples")
                .add(phases.samples[p] - phasesBefore.samples[p]);
            reg.counter(base + ".calls").add(calls);
        }
        // Preprocessing deltas (only when the pass is configured in:
        // keeps raw-solver runs free of zero-valued counter noise).
        if (solver.options().simp.enabled) {
            const SimpStats &s = solver.simpStats();
            OWL_COUNTER_ADD("sat.preprocess.rounds",
                            s.rounds - simpBefore.rounds);
            OWL_COUNTER_ADD("sat.preprocess.vars_eliminated",
                            s.varsEliminated -
                                simpBefore.varsEliminated);
            OWL_COUNTER_ADD("sat.preprocess.pure_literals",
                            s.pureLiterals - simpBefore.pureLiterals);
            OWL_COUNTER_ADD("sat.preprocess.clauses_subsumed",
                            s.clausesSubsumed -
                                simpBefore.clausesSubsumed);
            OWL_COUNTER_ADD("sat.preprocess.clauses_strengthened",
                            s.clausesStrengthened -
                                simpBefore.clausesStrengthened);
            OWL_COUNTER_ADD("sat.preprocess.failed_literals",
                            s.failedLiterals -
                                simpBefore.failedLiterals);
            OWL_COUNTER_ADD("sat.preprocess.resolvents_added",
                            s.resolventsAdded -
                                simpBefore.resolventsAdded);
            OWL_COUNTER_ADD("sat.preprocess.clauses_deleted",
                            s.clausesDeleted -
                                simpBefore.clausesDeleted);
            OWL_COUNTER_ADD("sat.preprocess.vars_total",
                            solver.takeUncountedVars());
        }
    }

  private:
    Solver &solver;
    const Stats &stats;
    Stats before;
    obs::LocalHistogram &lbd;
    const Solver::PhaseProfile &phases;
    Solver::PhaseProfile phasesBefore;
    SimpStats simpBefore;
    obs::ScopedSpan span;
};

} // namespace

Solver::Solver(const Options &options) : opts(options)
{
    if (opts.restartBase == 0)
        opts.restartBase = 100;
    if (opts.learnedLimitBase == 0)
        opts.learnedLimitBase = 8192;
    learnedLimit = opts.learnedLimitBase;
}

int
Solver::newVar()
{
    int v = nVars++;
    watches.emplace_back();
    watches.emplace_back();
    assigns.push_back(lUndef);
    levels.push_back(0);
    reasons.push_back(-1);
    activity.push_back(0.0);
    heapPos.push_back(-1);
    savedPhase.push_back(false);
    seen.push_back(0);
    frozenV.push_back(0);
    elimV.push_back(0);
    heapInsert(v);
    if (capture)
        capture->numVars = nVars;
    return v;
}

void
Solver::loadCnf(const Cnf &cnf)
{
    while (nVars < cnf.numVars)
        newVar();
    for (const auto &c : cnf.clauses)
        addClause(c);
}

bool
Solver::addClause(std::span<const Lit> in)
{
    owl_assert(decisionLevel() == 0, "clauses must be added at level 0");
    if (nEliminated > 0) {
        // The freeze discipline (setFrozen) guarantees callers never
        // mention an eliminated variable again: its defining clauses
        // are gone, so a new occurrence would silently change the
        // formula's meaning. A violation here is a caller bug.
        for (Lit l : in) {
            owl_assert(!elimV[l.var()],
                       "clause references eliminated variable ",
                       l.var(), " (missing setFrozen?)");
        }
    }
    if (capture)
        capture->clauses.emplace_back(in.begin(), in.end());
    if (unsatisfiable)
        return false;

    // Remove duplicates and satisfied/false literals at level 0, in
    // the scratch buffer: survivors are compacted to the front. The
    // write index never passes i, so lits[i - 1] and lits[i + 1] still
    // hold their sorted values when read.
    std::vector<Lit> &lits = addScratch;
    lits.assign(in.begin(), in.end());
    std::sort(lits.begin(), lits.end(),
              [](Lit a, Lit b) { return a.index() < b.index(); });
    size_t kept = 0;
    for (size_t i = 0; i < lits.size(); i++) {
        Lit l = lits[i];
        if (i + 1 < lits.size() && lits[i + 1] == ~l)
            return true; // tautology
        if (i > 0 && lits[i - 1] == l)
            continue; // duplicate
        if (value(l) == lTrue)
            return true; // already satisfied
        if (value(l) == lFalse)
            continue; // falsified at level 0, drop
        lits[kept++] = l;
    }
    lits.resize(kept);

    if (lits.empty()) {
        unsatisfiable = true;
        // The input clause's literals are all falsified by root-level
        // propagation, so the checker derives the conflict from the
        // formula alone; the empty clause records the refutation.
        if (proof)
            proof->addClause({});
        return false;
    }
    if (lits.size() == 1) {
        enqueue(lits[0], -1);
        if (propagate() != -1) {
            unsatisfiable = true;
            if (proof)
                proof->addClause({});
            return false;
        }
        return true;
    }
    addClauseInternal(lits, false);
    return true;
}

int
Solver::addClauseInternal(std::span<const Lit> lits, bool learned)
{
    size_t off = arena.size();
    arena.insert(arena.end(), lits.begin(), lits.end());
    int ci = commitClause(off, learned);
    attachClause(ci);
    return ci;
}

int
Solver::commitClause(size_t off, bool learned)
{
    owl_assert(arena.size() < UINT32_MAX, "clause arena overflow");
    int ci = clauses.size();
    clauses.push_back(Clause{static_cast<uint32_t>(off),
                             static_cast<uint32_t>(arena.size() - off),
                             learned, false, 0, claInc});
    clausesAdded++;
    return ci;
}

void
Solver::compactArena()
{
    size_t out = 0;
    for (Clause &c : clauses) {
        // Offsets rise with the index, so out <= c.off: every move
        // goes down, and a forward copy never reads what it wrote.
        if (c.off != out) {
            std::copy(arena.begin() + c.off,
                      arena.begin() + c.off + c.size,
                      arena.begin() + static_cast<long>(out));
            c.off = static_cast<uint32_t>(out);
        }
        out += c.size;
    }
    arena.resize(out);
    arenaGarbage = 0;
    statistics.arenaCompactions++;
}

void
Solver::attachClause(int ci)
{
    std::span<const Lit> lits = litsOf(clauses[ci]);
    owl_assert(lits.size() >= 2, "watched clause needs >= 2 literals");
    watches[(~lits[0]).index()].push_back({ci, lits[1]});
    watches[(~lits[1]).index()].push_back({ci, lits[0]});
}

void
Solver::enqueue(Lit l, int reason)
{
    owl_assert(value(l) == lUndef, "enqueue of assigned literal");
    assigns[l.var()] = l.negated() ? lFalse : lTrue;
    levels[l.var()] = decisionLevel();
    reasons[l.var()] = reason;
    trail.push_back(l);
}

int
Solver::propagate()
{
    while (propagateHead < trail.size()) {
        Lit p = trail[propagateHead++];
        statistics.propagations++;
        auto &ws = watches[p.index()];
        size_t i = 0, j = 0;
        int confl = -1;
        while (i < ws.size()) {
            Watcher w = ws[i];
            if (value(w.blocker) == lTrue) {
                ws[j++] = ws[i++];
                continue;
            }
            const Clause &c = clauses[w.clauseIdx];
            if (c.deleted) {
                i++;
                continue;
            }
            Lit *lits = arena.data() + c.off;
            // Ensure the false literal (~p) is at position 1.
            Lit not_p = ~p;
            if (lits[0] == not_p)
                std::swap(lits[0], lits[1]);
            if (value(lits[0]) == lTrue) {
                ws[j++] = {w.clauseIdx, lits[0]};
                i++;
                continue;
            }
            // Look for a new literal to watch.
            bool found = false;
            for (uint32_t k = 2; k < c.size; k++) {
                if (value(lits[k]) != lFalse) {
                    std::swap(lits[1], lits[k]);
                    watches[(~lits[1]).index()].push_back(
                        {w.clauseIdx, lits[0]});
                    found = true;
                    break;
                }
            }
            if (found) {
                i++;
                continue;
            }
            // Unit or conflict.
            ws[j++] = ws[i++];
            if (value(lits[0]) == lFalse) {
                confl = w.clauseIdx;
                // Copy remaining watchers and bail out.
                while (i < ws.size())
                    ws[j++] = ws[i++];
            } else {
                enqueue(lits[0], w.clauseIdx);
            }
        }
        ws.resize(j);
        if (confl != -1)
            return confl;
    }
    return -1;
}

void
Solver::analyze(int confl, std::vector<Lit> &learnt, int &bt_level)
{
    learnt.clear();
    learnt.push_back(Lit()); // slot for the asserting literal
    int counter = 0;
    Lit p;
    size_t trail_idx = trail.size();

    int cur = confl;
    do {
        if (clauses[cur].learned)
            bumpClause(cur);
        std::span<const Lit> lits = litsOf(clauses[cur]);
        size_t start = p.valid() ? 1 : 0;
        for (size_t k = start; k < lits.size(); k++) {
            Lit q = lits[k];
            if (!seen[q.var()] && levels[q.var()] > 0) {
                seen[q.var()] = 1;
                bumpVar(q.var());
                if (levels[q.var()] >= decisionLevel())
                    counter++;
                else
                    learnt.push_back(q);
            }
        }
        // Find the next literal on the trail to resolve on.
        while (!seen[trail[--trail_idx].var()]) {}
        p = trail[trail_idx];
        seen[p.var()] = 0;
        cur = reasons[p.var()];
        counter--;
    } while (counter > 0);
    learnt[0] = ~p;

    // Clause minimization: drop literals implied by the rest.
    uint32_t levels_mask = 0;
    for (size_t i = 1; i < learnt.size(); i++)
        levels_mask |= 1u << (levels[learnt[i].var()] & 31);
    // Clear the seen marks of dropped literals too: they would
    // otherwise leak into future conflict analyses.
    std::vector<Lit> &dropped = analyzeDropped;
    dropped.clear();
    size_t out = 1;
    for (size_t i = 1; i < learnt.size(); i++) {
        int r = reasons[learnt[i].var()];
        if (r == -1 || !litRedundant(learnt[i], levels_mask))
            learnt[out++] = learnt[i];
        else
            dropped.push_back(learnt[i]);
    }
    learnt.resize(out);
    for (Lit l : dropped)
        seen[l.var()] = 0;

    // Compute backtrack level: max level among learnt[1..].
    bt_level = 0;
    size_t max_i = 1;
    for (size_t i = 1; i < learnt.size(); i++) {
        if (levels[learnt[i].var()] > bt_level) {
            bt_level = levels[learnt[i].var()];
            max_i = i;
        }
    }
    if (learnt.size() > 1)
        std::swap(learnt[1], learnt[max_i]);

    for (Lit l : learnt)
        seen[l.var()] = 0;
}

bool
Solver::litRedundant(Lit l, uint32_t levels_mask)
{
    // Recursively check whether l's reason chain stays inside the seen
    // set. An iterative stack avoids deep recursion.
    std::vector<Lit> &stack = redundantStack;
    std::vector<int> &cleared = redundantCleared;
    stack.assign(1, l);
    cleared.clear();
    bool ok = true;
    while (!stack.empty() && ok) {
        Lit cur = stack.back();
        stack.pop_back();
        int r = reasons[cur.var()];
        if (r == -1) {
            ok = false;
            break;
        }
        for (Lit q : litsOf(clauses[r])) {
            if (q.var() == cur.var() || seen[q.var()] ||
                levels[q.var()] == 0) {
                continue;
            }
            if (reasons[q.var()] == -1 ||
                !(levels_mask & (1u << (levels[q.var()] & 31)))) {
                ok = false;
                break;
            }
            seen[q.var()] = 1;
            cleared.push_back(q.var());
            stack.push_back(q);
        }
    }
    // Restore the pre-call seen state either way; the learnt-clause
    // literals keep their own marks, cleared by analyze().
    for (int v : cleared)
        seen[v] = 0;
    return ok;
}

void
Solver::backtrack(int level)
{
    if (decisionLevel() <= level)
        return;
    size_t lim = trailLims[level];
    for (size_t i = trail.size(); i-- > lim;) {
        int v = trail[i].var();
        savedPhase[v] = (assigns[v] == lTrue);
        assigns[v] = lUndef;
        reasons[v] = -1;
        if (heapPos[v] == -1)
            heapInsert(v);
    }
    trail.resize(lim);
    trailLims.resize(level);
    propagateHead = trail.size();
}

Lit
Solver::pickBranchLit()
{
    while (!heap.empty()) {
        int v = heapPop();
        if (assigns[v] == lUndef && !elimV[v])
            return Lit(v, !savedPhase[v]);
    }
    return Lit();
}

void
Solver::bumpVar(int var)
{
    activity[var] += varInc;
    if (activity[var] > 1e100) {
        for (auto &a : activity)
            a *= 1e-100;
        varInc *= 1e-100;
    }
    if (heapPos[var] != -1)
        heapUpdate(var);
}

void
Solver::bumpClause(int ci)
{
    clauses[ci].activity += claInc;
    if (clauses[ci].activity > 1e20) {
        for (auto &c : clauses) {
            if (c.learned)
                c.activity *= 1e-20;
        }
        claInc *= 1e-20;
    }
}

void
Solver::decayActivities()
{
    varInc /= 0.95;
    claInc /= 0.999;
}

size_t
Solver::reduceDb()
{
    // Collect learned clauses not currently used as reasons, sort by
    // (lbd, activity) and delete the worst half.
    std::vector<int> cand;
    for (size_t ci = 0; ci < clauses.size(); ci++) {
        const Clause &c = clauses[ci];
        if (!c.learned || c.deleted || c.size <= 2)
            continue;
        Lit first = arena[c.off];
        bool is_reason = false;
        if (value(first) == lTrue &&
            reasons[first.var()] == static_cast<int>(ci)) {
            is_reason = true;
        }
        if (!is_reason)
            cand.push_back(ci);
    }
    std::sort(cand.begin(), cand.end(), [this](int a, int b) {
        if (clauses[a].lbd != clauses[b].lbd)
            return clauses[a].lbd > clauses[b].lbd;
        return clauses[a].activity < clauses[b].activity;
    });
    // Note: this is cand.size()/2, NOT half the live learned DB —
    // reasons and short clauses are exempt. Callers must decrement
    // their live count by the value returned here, not by half.
    size_t deleted = cand.size() / 2;
    for (size_t i = 0; i < deleted; i++) {
        statistics.learnedDeleted++;
        if (proof)
            proof->deleteClause(litsOf(clauses[cand[i]]));
        releaseClause(clauses[cand[i]]);
    }
    // Without the simplifier nothing else reclaims deleted literals.
    if (arenaGarbage > arena.size() / 2)
        compactArena();
    learnedLimit = learnedLimit + learnedLimit / 2;
    return deleted;
}

uint64_t
Solver::liveLearnedClauses() const
{
    uint64_t live = 0;
    for (const Clause &c : clauses) {
        if (c.learned && !c.deleted)
            live++;
    }
    return live;
}

std::vector<std::vector<Lit>>
Solver::learnedClauseDb() const
{
    std::vector<std::vector<Lit>> out;
    for (const Clause &c : clauses) {
        if (c.learned && !c.deleted) {
            std::span<const Lit> lits = litsOf(c);
            out.emplace_back(lits.begin(), lits.end());
        }
    }
    return out;
}

std::vector<Lit>
Solver::rootFixedLiterals() const
{
    size_t lim = trailLims.empty() ? trail.size()
                                   : static_cast<size_t>(trailLims[0]);
    return std::vector<Lit>(trail.begin(),
                            trail.begin() + static_cast<long>(lim));
}

void
Solver::analyzeFinal(Lit a)
{
    failedAssumptionsOut.clear();
    failedAssumptionsOut.push_back(a);
    if (decisionLevel() == 0)
        return;
    // Walk the implication graph backwards from the falsified
    // assumption. Decisions reached above level 0 are exactly the
    // earlier assumptions (search decisions only start after every
    // assumption is applied); level-0 antecedents are formula
    // consequences and drop out of the core.
    seen[a.var()] = 1;
    for (size_t i = trail.size(); i-- > static_cast<size_t>(trailLims[0]);) {
        int v = trail[i].var();
        if (!seen[v])
            continue;
        seen[v] = 0;
        if (reasons[v] == -1) {
            failedAssumptionsOut.push_back(trail[i]);
        } else {
            for (Lit q : litsOf(clauses[reasons[v]])) {
                // Skip the implied literal itself: re-marking v here
                // would leave a stray seen bit behind (the walk is
                // already past its trail position), poisoning every
                // later analyze() on this solver.
                if (q.var() != v && levels[q.var()] > 0)
                    seen[q.var()] = 1;
            }
        }
    }
    seen[a.var()] = 0;
}

uint64_t
Solver::luby(uint64_t i)
{
    // Luby sequence, 1-indexed: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
    // (classic MiniSat formulation).
    uint64_t x = i + 1;
    uint64_t size = 1, seq = 0;
    while (size < x + 1) {
        seq++;
        size = 2 * size + 1;
    }
    while (size - 1 != x) {
        size = (size - 1) / 2;
        seq--;
        x = x % size;
    }
    return 1ULL << seq;
}

int
Solver::auditWatchInvariants(lint::Report *report) const
{
    int violations = 0;
    auto diag = [&](const std::string &rule, const std::string &loc,
                    const std::string &msg) {
        violations++;
        if (report)
            report->error(rule, loc, msg);
    };

    // Occurrences of each live clause across all watch lists; deleted
    // clauses may linger in lists (they are purged lazily).
    std::vector<int> occurrences(clauses.size(), 0);
    for (size_t idx = 0; idx < watches.size(); idx++) {
        for (const Watcher &w : watches[idx]) {
            const std::string loc =
                "watch list for literal code " + std::to_string(idx);
            if (w.clauseIdx < 0 ||
                static_cast<size_t>(w.clauseIdx) >= clauses.size()) {
                diag("cnf.watch-range", loc,
                     "watcher references clause #" +
                         std::to_string(w.clauseIdx) +
                         " outside the database of " +
                         std::to_string(clauses.size()) + " clauses");
                continue;
            }
            const Clause &c = clauses[w.clauseIdx];
            if (c.deleted)
                continue;
            std::span<const Lit> lits = litsOf(c);
            occurrences[w.clauseIdx]++;
            // List idx holds watchers triggered when the literal with
            // that code becomes true, i.e. clauses whose watched
            // literal is its negation — and watched literals always
            // sit at positions 0/1.
            Lit watched;
            for (int b = 0; b < 2; b++) {
                if (lits.size() > static_cast<size_t>(b) &&
                    (~lits[b]).index() == static_cast<int>(idx)) {
                    watched = lits[b];
                }
            }
            if (!watched.valid()) {
                diag("cnf.watch-position", loc,
                     "clause #" + std::to_string(w.clauseIdx) +
                         " is watched through a literal not at "
                         "position 0 or 1");
            }
        }
    }
    for (size_t ci = 0; ci < clauses.size(); ci++) {
        const Clause &c = clauses[ci];
        if (c.deleted || c.size < 2)
            continue;
        if (occurrences[ci] != 2) {
            diag("cnf.watch-count",
                 "clause #" + std::to_string(ci),
                 "live clause is watched " +
                     std::to_string(occurrences[ci]) +
                     " times, expected exactly 2");
        }
    }
    return violations;
}

Result
Solver::solve(const std::vector<Lit> &assumptions)
{
    SolveObs solve_obs(*this, statistics, lbdLocal, phaseProf);
#ifndef NDEBUG
    // Debug builds audit the watcher invariants at this quiescent
    // point (addClause propagates units to fixpoint, so no
    // propagation is pending at solve entry).
    owl_assert(auditWatchInvariants() == 0,
               "two-watched-literal invariant violated at solve entry");
#endif
    lastUnsatConditional = false;
    failedAssumptionsOut.clear();
    // Assumption variables must survive elimination for the lifetime
    // of the solver: the caller can re-assume them on any later call,
    // and a conditional-Unsat core must name them. Freeze before the
    // preprocessing pass runs.
    for (Lit a : assumptions) {
        owl_assert(!elimV[a.var()],
                   "assumption over eliminated variable ", a.var());
        frozenV[a.var()] = 1;
    }
    if (unsatisfiable)
        return Result::Unsat;
    if (cancelRequested())
        return Result::Unknown;
    // Preprocess at entry on the first call (the whole formula) and
    // thereafter only once the database grew enough to repay a round
    // — incremental callers add a few hundred clauses per check, and
    // re-simplifying every tiny delta costs far more than it prunes
    // (a round is O(db), not O(delta): cleanup scan, occurrence
    // rebuild, watch rebuild, re-propagation).
    size_t growth = clausesAdded - simpClausesSeen;
    size_t trigger = std::max(opts.simp.minNewClauses,
                              simpClausesSeen / 8);
    if (opts.simp.enabled && (!simpEverRan || growth >= trigger)) {
        bool ok = profiled(PhaseSimplify, [this] { return simplify(); });
        if (!ok)
            return Result::Unsat;
    }

    auto start_time = std::chrono::steady_clock::now();
    uint64_t conflicts_at_start = statistics.conflicts;
    uint64_t restart_num = 0;
    uint64_t conflict_budget = opts.restartBase * luby(restart_num);
    uint64_t conflicts_this_restart = 0;

    std::vector<Lit> learnt;

    while (true) {
        int confl =
            profiled(PhasePropagate, [this] { return propagate(); });
        if (confl != -1) {
            statistics.conflicts++;
            conflicts_this_restart++;
            if (decisionLevel() == 0) {
                // Conflict under no decisions is a root-level
                // refutation. Every literal on the level-0 trail is a
                // formula consequence — assumptions are always decided
                // at level >= 1 — so this verdict is unconditional
                // even mid-assumption-solve, latches, and carries a
                // DRAT proof obligation.
                unsatisfiable = true;
                if (proof)
                    proof->addClause({});
                return Result::Unsat;
            }
            int bt_level;
            profiled(PhaseAnalyze, [this, confl, &learnt, &bt_level] {
                analyze(confl, learnt, bt_level);
            });
            statistics.learnedClauses++;
            statistics.learnedLiterals += learnt.size();
            // Learned clauses are derived by resolution over reason
            // clauses only, so they are RUP lemmas with or without
            // assumptions in play.
            if (proof)
                proof->addClause(learnt);
            // If the conflict is below the assumption levels the
            // formula is unsat under these assumptions.
            backtrack(bt_level);
            if (learnt.size() == 1) {
                statistics.learnedUnits++;
                if (decisionLevel() > 0)
                    backtrack(0);
                if (value(learnt[0]) == lFalse) {
                    // The learned unit is a formula lemma (resolution
                    // over reason clauses only) and is falsified at
                    // level 0, so the formula itself is unsat —
                    // unconditional, assumptions or not.
                    unsatisfiable = true;
                    if (proof)
                        proof->addClause({});
                    return Result::Unsat;
                }
                if (value(learnt[0]) == lUndef)
                    enqueue(learnt[0], -1);
            } else {
                int ci = addClauseInternal(learnt, true);
                // LBD: number of distinct levels in the clause.
                std::vector<int> &lvls = lbdLevels;
                lvls.clear();
                for (Lit l : learnt)
                    lvls.push_back(levels[l.var()]);
                std::sort(lvls.begin(), lvls.end());
                clauses[ci].lbd =
                    std::unique(lvls.begin(), lvls.end()) - lvls.begin();
                if (obs::enabled())
                    lbdLocal.record(
                        static_cast<uint64_t>(clauses[ci].lbd));
                liveLearned++;
                enqueue(learnt[0], ci);
            }
            decayActivities();

            if (conflictLimit &&
                statistics.conflicts - conflicts_at_start >= conflictLimit) {
                backtrack(0);
                return Result::Unknown;
            }
            if (timeLimit.count() > 0 && (statistics.conflicts & 0xff) == 0) {
                auto elapsed = std::chrono::steady_clock::now() - start_time;
                if (elapsed > timeLimit) {
                    backtrack(0);
                    return Result::Unknown;
                }
            }
            if ((statistics.conflicts & 0x3f) == 0) {
                // Counter-track samples ride the existing cancel
                // stride, so tracing adds no polls of its own.
                if (obs::counterSamplingEnabled())
                    obs::sampleCounter("sat.live_learned",
                                       liveLearned);
                if (cancelRequested()) {
                    backtrack(0);
                    return Result::Unknown;
                }
            }
            if (liveLearned >= learnedLimit) {
                liveLearned -= profiled(PhaseReduceDb,
                                        [this] { return reduceDb(); });
#ifndef NDEBUG
                owl_assert(liveLearned == liveLearnedClauses(),
                           "learned-clause accounting drift after "
                           "reduceDb");
#endif
            }
        } else {
            if (conflicts_this_restart >= conflict_budget) {
                statistics.restarts++;
                restart_num++;
                conflict_budget = opts.restartBase * luby(restart_num);
                conflicts_this_restart = 0;
                profiled(PhaseRestart, [this] { backtrack(0); });
                // Inprocessing: at restart boundaries (back at level
                // 0, assumptions unwound) re-run the simplification
                // pass on the accumulated learned clauses and root
                // units, on a conflict cadence.
                if (opts.simp.enabled &&
                    opts.simp.inprocessConflicts > 0 &&
                    statistics.conflicts - simpConflictsAt >=
                        opts.simp.inprocessConflicts) {
                    bool ok = profiled(PhaseSimplify,
                                       [this] { return simplify(); });
                    if (!ok)
                        return Result::Unsat;
                }
                continue;
            }
            // Conflict-free stretches (e.g. a huge satisfiable
            // instance being filled in) must also notice cancellation
            // and the wall-clock budget, so poll both on a decision
            // stride too — the conflict-branch polls never run when
            // the fill-in produces no conflicts.
            if ((statistics.decisions & 0x3ff) == 0) {
                if (cancelRequested()) {
                    backtrack(0);
                    return Result::Unknown;
                }
                if (timeLimit.count() > 0) {
                    auto elapsed =
                        std::chrono::steady_clock::now() - start_time;
                    if (elapsed > timeLimit) {
                        backtrack(0);
                        return Result::Unknown;
                    }
                }
            }
            // Apply pending assumptions as decisions.
            if (decisionLevel() < static_cast<int>(assumptions.size())) {
                Lit a = assumptions[decisionLevel()];
                if (value(a) == lFalse) {
                    // Unsat *under these assumptions* only: the
                    // formula is not refuted (no proof step, no
                    // latch). Record which assumptions conflicted
                    // before unwinding the trail.
                    lastUnsatConditional = true;
                    analyzeFinal(a);
                    backtrack(0);
                    return Result::Unsat;
                }
                trailLims.push_back(trail.size());
                if (value(a) == lUndef)
                    enqueue(a, -1);
                continue;
            }
            Lit next = profiled(PhaseDecide,
                                [this] { return pickBranchLit(); });
            if (!next.valid()) {
                // All variables assigned: model found. Snapshot it,
                // replay eliminated-variable definitions so the model
                // covers every variable, and rewind to level 0 so the
                // caller can keep adding clauses and re-solving
                // (incremental use).
                model.assign(assigns.begin(), assigns.end());
                if (nEliminated > 0)
                    extendModel();
                backtrack(0);
                return Result::Sat;
            }
            statistics.decisions++;
            trailLims.push_back(trail.size());
            enqueue(next, -1);
        }
    }
}

bool
Solver::modelValue(int var) const
{
    owl_assert(var >= 0 &&
                   static_cast<size_t>(var) < model.size(),
               "model query for a var not covered by the last Sat "
               "model");
    return model[var] == lTrue;
}

// ---- binary heap keyed by activity -------------------------------------

void
Solver::heapInsert(int var)
{
    heapPos[var] = heap.size();
    heap.push_back(var);
    heapSiftUp(heap.size() - 1);
}

void
Solver::heapUpdate(int var)
{
    heapSiftUp(heapPos[var]);
}

int
Solver::heapPop()
{
    int top = heap[0];
    heapPos[top] = -1;
    heap[0] = heap.back();
    heap.pop_back();
    if (!heap.empty()) {
        heapPos[heap[0]] = 0;
        heapSiftDown(0);
    }
    return top;
}

void
Solver::heapSiftUp(int i)
{
    int v = heap[i];
    while (i > 0) {
        int parent = (i - 1) / 2;
        if (!heapLess(v, heap[parent]))
            break;
        heap[i] = heap[parent];
        heapPos[heap[i]] = i;
        i = parent;
    }
    heap[i] = v;
    heapPos[v] = i;
}

void
Solver::heapSiftDown(int i)
{
    int v = heap[i];
    int n = heap.size();
    while (true) {
        int child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heapLess(heap[child + 1], heap[child]))
            child++;
        if (!heapLess(heap[child], v))
            break;
        heap[i] = heap[child];
        heapPos[heap[i]] = i;
        i = child;
    }
    heap[i] = v;
    heapPos[v] = i;
}

} // namespace owl::sat
