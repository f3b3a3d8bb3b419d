/**
 * @file
 * SatELite-style pre/inprocessing over the live clause database
 * (Eén & Biere 2005): backward subsumption, self-subsuming
 * resolution, bounded variable elimination with a clause-growth
 * cutoff, pure-literal elimination (the zero-resolvent BVE case), and
 * failed-literal probing. Runs at solve() entry whenever the database
 * changed and at restart boundaries on a conflict cadence.
 *
 * Soundness obligations, in the order they bite:
 *
 *  - Frozen variables (Solver::setFrozen) are never eliminated. Any
 *    variable a future addClause()/assumption can mention must be
 *    frozen by the caller; there is no un-elimination (the DRAT log
 *    is RUP-only, so reintroduced defining clauses could not be
 *    justified), which is why the discipline is enforced with
 *    assertions rather than patched around.
 *
 *  - Every rewrite is logged to the DRAT sink. The checker's live set
 *    always contains (a superset of) the solver's live clauses: each
 *    round first logs the newly fixed root literals as unit lemmas
 *    (RUP: they are exactly the unit-propagation closure of clauses
 *    live at that point — and logging them *before* any deletion
 *    keeps them derivable forever after), then logs every
 *    strengthened clause / resolvent as an addition before its
 *    parents are deleted. Original clauses are deleted through an
 *    add-then-delete pair: the solver's stored form can differ from
 *    the raw captured axiom (addClause strips root-false literals),
 *    and the checker keys deletions on exact literal sets, so the
 *    stored form is re-derived (RUP via the raw axiom plus logged
 *    units) and then deleted, leaving the raw axiom live — deletions
 *    only ever shrink checker work, never soundness.
 *
 *  - Model reconstruction: eliminating v records the smaller original
 *    side of its occurrence lists (v's literal first) plus a default
 *    unit satisfying the larger side; Solver::extendModel() replays
 *    the records backwards (MiniSat's scheme) so every Sat model
 *    covers eliminated variables and satisfies the original formula.
 *
 *  - Learned clauses: a clause containing an eliminated variable is
 *    deleted (it is not a consequence of the post-elimination
 *    formula), but only original clauses are resolved — variable
 *    elimination is exact existential quantification over the
 *    original formula, and v-free learned clauses remain
 *    consequences. Learned clauses never subsume or strengthen
 *    originals (deleting an original against a learned subsumer could
 *    later drop the constraint entirely when the learned clause is
 *    reduced away).
 */

#include <algorithm>
#include <memory_resource>
#include <span>

#include "base/logging.h"
#include "obs/obs.h"
#include "sat/drat.h"
#include "sat/simp.h"
#include "sat/solver.h"

namespace owl::sat
{

class Simplifier
{
  public:
    explicit Simplifier(Solver &solver) : s(solver) {}

    /** One full round; returns false when the formula was refuted. */
    bool run()
    {
        owl_assert(s.decisionLevel() == 0,
                   "simplify requires decision level 0");
        owl_assert(s.propagateHead == s.trail.size(),
                   "simplify requires a propagation fixpoint");
        obs::ScopedSpan span("sat.simplify");
        SimpStats before = s.simpStatistics;

        logNewRootUnits();
        // Root literals are permanent facts; their reason clauses are
        // about to be rewritten, and level-0 literals never take part
        // in conflict analysis anyway.
        for (Lit l : s.trail)
            s.reasons[l.var()] = -1;

        mark.assign(static_cast<size_t>(s.nVars) * 2, 0);
        touchedVar.assign(static_cast<size_t>(s.nVars), 0);
        size_t new_from = s.simpEverRan ? s.simpNewFrom : 0;

        int64_t t0 = obs::nowNs();
        cleanup();
        int64_t t1 = obs::nowNs();
        if (!refuted) {
            buildIndex();
            seedWorklists(new_from);
            subsumptionPass();
        }
        int64_t t2 = obs::nowNs();
        if (!refuted)
            eliminationPass();
        int64_t t3 = obs::nowNs();
        if (!refuted) {
            compactClauses();
            rebuildAndPropagate();
        }
        if (!refuted)
            probeFailedLiterals();
        int64_t t4 = obs::nowNs();
        OWL_TRACE_EVENT("sat", "simplify vars=", s.nVars,
                        " clauses=", s.clauses.size(),
                        " cleanup_ns=", t1 - t0,
                        " subsume_ns=", t2 - t1,
                        " eliminate_ns=", t3 - t2,
                        " rebuild_probe_ns=", t4 - t3);

        s.simpClausesSeen = s.clausesAdded;
        s.simpNewFrom = s.clauses.size();
        s.simpTrailSeen = s.trail.size();
        s.simpConflictsAt = s.statistics.conflicts;
        s.simpEverRan = true;
        s.simpStatistics.rounds++;

        const SimpStats &now = s.simpStatistics;
        span.attr("cleanup_ns", t1 - t0);
        span.attr("subsume_ns", t2 - t1);
        span.attr("eliminate_ns", t3 - t2);
        span.attr("rebuild_probe_ns", t4 - t3);
        span.attr("vars_eliminated",
                  now.varsEliminated - before.varsEliminated);
        span.attr("clauses_subsumed",
                  now.clausesSubsumed - before.clausesSubsumed);
        span.attr("clauses_strengthened",
                  now.clausesStrengthened - before.clausesStrengthened);
        span.attr("failed_literals",
                  now.failedLiterals - before.failedLiterals);
        if (refuted)
            span.attr("result", "unsat");
        return !refuted;
    }

  private:
    Solver &s;
    /**
     * Backs the occurrence index, which lives exactly one round: a
     * list is a pointer bump, not a malloc, and all of them are
     * released together when the round ends.
     */
    std::pmr::monotonic_buffer_resource occMemory;
    /** Literal code -> live clause indices (lazily stale). */
    std::pmr::vector<std::pmr::vector<int>> occ{&occMemory};
    std::vector<uint64_t> sigs;   ///< per clause
    std::vector<uint8_t> inQueue; ///< per clause
    /**
     * Per clause, kept in step with the database from buildIndex()
     * on, so gather() can filter an occurrence list without loading
     * the clauses it names.
     */
    enum : uint8_t
    {
        kLearned = 1,
        kDeleted = 2,
        /** Strengthened since indexing: entries may be stale. */
        kShrunk = 4,
    };
    std::vector<uint8_t> occFlags;
    std::vector<int> queue;       ///< subsumption worklist (originals)
    std::vector<uint8_t> touchedVar;
    std::vector<uint8_t> mark; ///< literal-code scratch
    /** Strengthened-clause scratch (cleanup, self-subsumption). */
    std::vector<Lit> kept;
    /** tryEliminate scratch: occurrences of v's two literals. */
    std::vector<int> posAll, posOrig, negAll, negOrig;
    /**
     * tryEliminate scratch: every resolvent of the candidate,
     * back to back in one buffer; resEnd[k] is one past the last
     * literal of resolvent k.
     */
    std::vector<Lit> resLits;
    std::vector<size_t> resEnd;
    /**
     * tryEliminate scratch: the neg-side clauses without v's
     * literal, back to back (same layout as resLits), so the
     * pos x neg cross product walks one contiguous buffer.
     */
    std::vector<Lit> negLits;
    std::vector<size_t> negEnd;
    bool refuted = false;

    void refute()
    {
        if (refuted)
            return;
        refuted = true;
        s.unsatisfiable = true;
        if (s.proof)
            s.proof->addClause({});
    }

    /**
     * Log root literals fixed since the last round as unit lemmas.
     * Each is RUP right now (the root trail is the unit-propagation
     * closure of live clauses); once logged, later rewrites may
     * delete the clauses that derived them without stranding any
     * subsequent RUP check.
     */
    void logNewRootUnits()
    {
        if (!s.proof)
            return;
        size_t from = s.simpEverRan ? s.simpTrailSeen : 0;
        for (size_t i = from; i < s.trail.size(); i++)
            s.proof->addClause({s.trail[i]});
    }

    /** Is the literal's variable root-assigned making it true/false? */
    uint8_t litValue(Lit l) const { return s.value(l); }

    void touch(std::span<const Lit> lits)
    {
        for (Lit l : lits)
            touchedVar[static_cast<size_t>(l.var())] = 1;
    }

    /**
     * Delete a clause from the database, with proof emission and
     * learned-clause accounting. Original clauses go through the
     * add-then-delete pair (see file comment).
     */
    void removeClause(int ci)
    {
        Solver::Clause &c = s.clauses[static_cast<size_t>(ci)];
        if (c.deleted)
            return;
        std::span<const Lit> lits = s.litsOf(c);
        if (s.proof) {
            if (!c.learned)
                s.proof->addClause(lits);
            s.proof->deleteClause(lits);
        }
        touch(lits);
        dropClause(ci);
    }

    /**
     * Delete a clause whose DRAT steps are logged and whose
     * variables are touched: learned-clause accounting, then free.
     */
    void dropClause(int ci)
    {
        Solver::Clause &c = s.clauses[static_cast<size_t>(ci)];
        if (c.learned) {
            s.liveLearned--;
            s.statistics.learnedDeleted++;
        }
        s.simpStatistics.clausesDeleted++;
        s.releaseClause(c);
        if (!occFlags.empty())
            occFlags[static_cast<size_t>(ci)] |= kDeleted;
    }

    /**
     * Replace a clause's literals with a strict subset (dropping
     * root-false literals or a self-subsumption pivot). A one-literal
     * result leaves the database and lands on the root trail. The
     * subset is written over the clause's own arena slot, which
     * always has room for it; the tail becomes garbage.
     */
    void strengthenTo(int ci, const std::vector<Lit> &new_lits)
    {
        Solver::Clause &c = s.clauses[static_cast<size_t>(ci)];
        owl_assert(!new_lits.empty(),
                   "strengthening emptied a clause past propagation");
        std::span<Lit> lits = s.litsOf(c);
        if (s.proof) {
            s.proof->addClause(new_lits);
            if (!c.learned)
                s.proof->addClause(lits);
            s.proof->deleteClause(lits);
        }
        s.simpStatistics.clausesStrengthened++;
        touch(lits);
        if (new_lits.size() == 1) {
            dropClause(ci);
            uint8_t v = litValue(new_lits[0]);
            if (v == Solver::lFalse) {
                refute();
                return;
            }
            if (v == Solver::lUndef)
                s.enqueue(new_lits[0], -1);
            return;
        }
        std::copy(new_lits.begin(), new_lits.end(), lits.begin());
        s.arenaGarbage += c.size - new_lits.size();
        c.size = static_cast<uint32_t>(new_lits.size());
        if (!sigs.empty()) {
            occFlags[static_cast<size_t>(ci)] |= kShrunk;
            sigs[static_cast<size_t>(ci)] =
                simp::clauseSignature(s.litsOf(c));
            if (!c.learned)
                pushQueue(ci);
        }
    }

    /**
     * Drop satisfied clauses and strip root-false literals against
     * the current root trail. Runs over the whole database: root
     * units fixed since the last round can satisfy/shorten any
     * clause, not just recent ones.
     */
    void cleanup()
    {
        for (size_t ci = 0; ci < s.clauses.size() && !refuted; ci++) {
            Solver::Clause &c = s.clauses[ci];
            if (c.deleted)
                continue;
            bool satisfied = false;
            bool any_false = false;
            for (Lit l : s.litsOf(c)) {
                uint8_t v = litValue(l);
                if (v == Solver::lTrue) {
                    satisfied = true;
                    break;
                }
                if (v == Solver::lFalse)
                    any_false = true;
            }
            if (satisfied) {
                removeClause(static_cast<int>(ci));
                continue;
            }
            if (!any_false)
                continue;
            kept.clear();
            for (Lit l : s.litsOf(c)) {
                if (litValue(l) != Solver::lFalse)
                    kept.push_back(l);
            }
            strengthenTo(static_cast<int>(ci), kept);
        }
    }

    void buildIndex()
    {
        occ.assign(static_cast<size_t>(s.nVars) * 2, {});
        sigs.assign(s.clauses.size(), 0);
        inQueue.assign(s.clauses.size(), 0);
        occFlags.assign(s.clauses.size(), 0);
        // Size every list up front: one bump of occMemory per
        // literal instead of a doubling chain.
        std::vector<uint32_t> count(occ.size(), 0);
        for (const Solver::Clause &c : s.clauses) {
            for (Lit l : s.litsOf(c))
                count[static_cast<size_t>(l.index())]++;
        }
        for (size_t i = 0; i < occ.size(); i++)
            occ[i].reserve(count[i]);
        for (size_t ci = 0; ci < s.clauses.size(); ci++) {
            const Solver::Clause &c = s.clauses[ci];
            if (c.deleted) {
                occFlags[ci] = kDeleted;
                continue;
            }
            if (c.learned)
                occFlags[ci] = kLearned;
            std::span<const Lit> lits = s.litsOf(c);
            sigs[ci] = simp::clauseSignature(lits);
            for (Lit l : lits)
                occ[static_cast<size_t>(l.index())].push_back(
                    static_cast<int>(ci));
        }
    }

    void pushQueue(int ci)
    {
        size_t i = static_cast<size_t>(ci);
        if (i >= inQueue.size())
            inQueue.resize(i + 1, 0);
        if (inQueue[i])
            return;
        inQueue[i] = 1;
        queue.push_back(ci);
    }

    /**
     * Seed the incremental worklists. First round: everything. Later
     * rounds: clauses added since the last round (subsumption
     * candidates) and the variables they mention (elimination
     * candidates) — plus whatever cleanup/strengthening touched.
     */
    void seedWorklists(size_t new_from)
    {
        for (size_t ci = new_from; ci < s.clauses.size(); ci++) {
            const Solver::Clause &c = s.clauses[ci];
            if (c.deleted)
                continue;
            if (!c.learned)
                pushQueue(static_cast<int>(ci));
            touch(s.litsOf(c));
        }
        if (new_from == 0) {
            for (int v = 0; v < s.nVars; v++)
                touchedVar[static_cast<size_t>(v)] = 1;
        }
    }

    /**
     * Backward subsumption + self-subsuming resolution. Original
     * clauses act as subsumers against everything; learned subsumees
     * are deleted/strengthened freely (always sound — they are
     * consequences), learned subsumers are skipped entirely.
     */
    void subsumptionPass()
    {
        while (!queue.empty() && !refuted) {
            int ci = queue.back();
            queue.pop_back();
            inQueue[static_cast<size_t>(ci)] = 0;
            const Solver::Clause &c =
                s.clauses[static_cast<size_t>(ci)];
            if (c.deleted || c.learned)
                continue;
            // Scan the shortest occurrence list among c's literals:
            // every clause c subsumes must contain all of them.
            Lit best = s.litsOf(c)[0];
            for (Lit l : s.litsOf(c)) {
                if (occ[static_cast<size_t>(l.index())].size() <
                    occ[static_cast<size_t>(best.index())].size()) {
                    best = l;
                }
            }
            const std::pmr::vector<int> &cands =
                occ[static_cast<size_t>(best.index())];
            for (size_t k = 0; k < cands.size() && !refuted; k++) {
                int di = cands[k];
                if (di == ci)
                    continue;
                Solver::Clause &d =
                    s.clauses[static_cast<size_t>(di)];
                if (d.deleted ||
                    s.clauses[static_cast<size_t>(ci)].deleted) {
                    continue;
                }
                if ((sigs[static_cast<size_t>(ci)] &
                     ~sigs[static_cast<size_t>(di)]) != 0) {
                    continue;
                }
                Lit pivot;
                simp::SubsumeRel rel = simp::subsumeCheck(
                    s.litsOf(s.clauses[static_cast<size_t>(ci)]),
                    s.litsOf(d), mark, &pivot);
                if (rel == simp::SubsumeRel::Subsumes) {
                    removeClause(di);
                    s.simpStatistics.clausesSubsumed++;
                } else if (rel == simp::SubsumeRel::SelfSubsumes) {
                    kept.clear();
                    for (Lit l : s.litsOf(d)) {
                        if (l != ~pivot)
                            kept.push_back(l);
                    }
                    strengthenTo(di, kept);
                }
            }
        }
    }

    /**
     * Resolve every original pos-side clause of v with every
     * original neg-side clause, pos-major, into resLits/resEnd.
     * Each resolvent is the pos clause's other literals followed by
     * the neg clause's literals not already among them; tautologies
     * are skipped.
     * @return false as soon as a resolvent is oversized, the literal
     *         total exceeds max_lits or the count exceeds
     *         max_resolvents.
     */
    bool resolveAll(int v, size_t max_resolvents, size_t max_lits)
    {
        resLits.clear();
        resEnd.clear();
        negLits.clear();
        negEnd.clear();
        for (int ni : negOrig) {
            for (Lit l : s.litsOf(s.clauses[static_cast<size_t>(ni)])) {
                if (l.var() != v)
                    negLits.push_back(l);
            }
            negEnd.push_back(negLits.size());
        }
        const size_t size_limit = s.opts.simp.resolventSizeLimit;
        for (int pi : posOrig) {
            std::span<const Lit> pos =
                s.litsOf(s.clauses[static_cast<size_t>(pi)]);
            // Clauses hold no duplicate or complementary literals,
            // so marking the pos clause once serves every partner: a
            // neg literal whose complement is marked makes the
            // resolvent a tautology, a marked one is already in it.
            for (Lit l : pos)
                mark[static_cast<size_t>(l.index())] = 1;
            bool ok = true;
            for (size_t k = 0; k < negEnd.size(); k++) {
                const Lit *nb =
                    negLits.data() + (k == 0 ? 0 : negEnd[k - 1]);
                const Lit *ne = negLits.data() + negEnd[k];
                bool taut = false;
                for (const Lit *q = nb; q != ne; q++) {
                    if (mark[static_cast<size_t>((~*q).index())]) {
                        taut = true;
                        break;
                    }
                }
                if (taut)
                    continue;
                size_t begin = resLits.size();
                for (Lit l : pos) {
                    if (l.var() != v)
                        resLits.push_back(l);
                }
                for (const Lit *q = nb; q != ne; q++) {
                    if (!mark[static_cast<size_t>(q->index())])
                        resLits.push_back(*q);
                }
                if (resLits.size() - begin > size_limit ||
                    resLits.size() > max_lits) {
                    ok = false;
                    break;
                }
                resEnd.push_back(resLits.size());
                if (resEnd.size() > max_resolvents) {
                    ok = false;
                    break;
                }
            }
            for (Lit l : pos)
                mark[static_cast<size_t>(l.index())] = 0;
            if (!ok)
                return false;
        }
        return true;
    }

    /**
     * Gather the live clauses containing the literal, in occurrence
     * order. Entries for deleted clauses, and stale entries for
     * clauses strengthened past the literal, never become valid
     * again within a round (clauses only lose literals; indices are
     * not reused), so they are compacted out of the list in place.
     * Only the elimination pass gathers: the subsumption pass picks
     * its scan list by raw list length and runs before any
     * compaction.
     */
    void gather(Lit l, std::vector<int> &all, std::vector<int> &orig)
    {
        all.clear();
        orig.clear();
        std::pmr::vector<int> &list = occ[static_cast<size_t>(l.index())];
        size_t kept_n = 0;
        for (int ci : list) {
            uint8_t f = occFlags[static_cast<size_t>(ci)];
            if (f & kDeleted)
                continue;
            if (f & kShrunk) {
                std::span<const Lit> lits =
                    s.litsOf(s.clauses[static_cast<size_t>(ci)]);
                if (std::find(lits.begin(), lits.end(), l) ==
                    lits.end()) {
                    continue;
                }
            }
            list[kept_n++] = ci;
            all.push_back(ci);
            if (!(f & kLearned))
                orig.push_back(ci);
        }
        list.resize(kept_n);
    }

    /**
     * Add a BVE resolvent (literals [begin, end) of resLits) to the
     * database as an original clause. Its literals not false at the
     * root go straight into the solver's arena.
     */
    void addResolvent(size_t begin, size_t end)
    {
        std::span<const Lit> raw(resLits.data() + begin, end - begin);
        // Satisfied resolvents impose nothing; skip without a proof
        // step (they are never part of the formula).
        for (Lit l : raw) {
            if (litValue(l) == Solver::lTrue)
                return;
        }
        if (s.proof)
            s.proof->addClause(raw);
        size_t off = s.arena.size();
        for (Lit l : raw) {
            if (litValue(l) != Solver::lFalse)
                s.arena.push_back(l);
        }
        std::span<const Lit> stored(s.arena.data() + off,
                                    s.arena.size() - off);
        if (s.proof && stored.size() != raw.size())
            s.proof->addClause(stored);
        if (stored.empty()) {
            refute();
            return;
        }
        s.simpStatistics.resolventsAdded++;
        if (stored.size() == 1) {
            Lit unit = stored[0];
            s.arena.resize(off);
            if (litValue(unit) == Solver::lUndef)
                s.enqueue(unit, -1);
            return;
        }
        sigs.push_back(simp::clauseSignature(stored));
        inQueue.push_back(0);
        occFlags.push_back(0);
        int ci = s.commitClause(off, false);
        for (Lit l : stored)
            occ[static_cast<size_t>(l.index())].push_back(ci);
        touch(stored);
        pushQueue(ci);
    }

    /**
     * Bounded variable elimination of v. Resolves original×original,
     * aborts on growth past pos+neg+growthLimit or on an oversized
     * resolvent, then deletes every clause containing v (learned
     * included) and records the smaller original side for model
     * reconstruction.
     */
    bool tryEliminate(int v)
    {
        if (s.frozenV[static_cast<size_t>(v)] ||
            s.elimV[static_cast<size_t>(v)] ||
            s.assigns[static_cast<size_t>(v)] != Solver::lUndef) {
            return false;
        }
        Lit pl(v, false), nl(v, true);
        gather(pl, posAll, posOrig);
        gather(nl, negAll, negOrig);
        const Solver::Options &o = s.opts;
        if (posOrig.size() + negOrig.size() > o.simp.occurrenceLimit)
            return false;

        size_t limit =
            posOrig.size() + negOrig.size() +
            static_cast<size_t>(o.simp.growthLimit > 0
                                    ? o.simp.growthLimit
                                    : 0);
        // Literal-count budget (SatELite's stricter bound): an
        // elimination that keeps the clause count but widens clauses
        // is a net loss — merging two Tseitin XOR definitions, for
        // example, keeps the count while doubling widths, and a few
        // such steps turn a structured carry-less-multiply cone into
        // wide XOR clauses that CDCL cannot propagate through
        // (observed: a 21 s reference-verify query became minutes).
        size_t lits_before = 0;
        for (int ci : posOrig)
            lits_before += s.clauses[static_cast<size_t>(ci)].size;
        for (int ci : negOrig)
            lits_before += s.clauses[static_cast<size_t>(ci)].size;
        if (!resolveAll(v, limit, lits_before))
            return false;

        // Commit. Resolvents first (their RUP derivation uses the
        // parents), then the model-reconstruction records, then the
        // deletions.
        for (size_t k = 0; k < resEnd.size(); k++) {
            addResolvent(k == 0 ? 0 : resEnd[k - 1], resEnd[k]);
            if (refuted)
                return true;
        }
        bool store_pos = posOrig.size() <= negOrig.size();
        const std::vector<int> &side = store_pos ? posOrig : negOrig;
        Lit side_lit = store_pos ? pl : nl;
        for (int ci : side) {
            s.elimLits.push_back(side_lit);
            for (Lit l : s.litsOf(s.clauses[static_cast<size_t>(ci)])) {
                if (l != side_lit)
                    s.elimLits.push_back(l);
            }
            s.elimEnd.push_back(s.elimLits.size());
        }
        // Default: the polarity satisfying the larger (unstored)
        // side; extendModel() flips it only when a stored clause
        // would otherwise go unsatisfied.
        s.elimLits.push_back(store_pos ? nl : pl);
        s.elimEnd.push_back(s.elimLits.size());

        for (int ci : posAll)
            removeClause(ci);
        for (int ci : negAll)
            removeClause(ci);
        s.elimV[static_cast<size_t>(v)] = 1;
        s.nEliminated++;
        s.simpStatistics.varsEliminated++;
        if (posOrig.empty() || negOrig.empty())
            s.simpStatistics.pureLiterals++;
        return true;
    }

    void eliminationPass()
    {
        bool changed = true;
        while (changed && !refuted) {
            changed = false;
            for (int v = 0; v < s.nVars && !refuted; v++) {
                if (!touchedVar[static_cast<size_t>(v)])
                    continue;
                touchedVar[static_cast<size_t>(v)] = 0;
                if (tryEliminate(v))
                    changed = true;
            }
        }
    }

    /**
     * Drop the round's deleted clauses (and those reduceDb deleted
     * since the last round) from the clause array, keeping the
     * survivors' relative order so the rebuilt watch lists come out
     * in the same order as over the uncompacted array, then squeeze
     * the garbage out of the literal arena in the same order. Nothing holds
     * a clause index across this point: the occurrence index dies
     * with the round, the watch lists are rebuilt next, and every
     * root literal's reason is -1 (cleared at round start; the round
     * itself only enqueues reasonless units).
     */
    void compactClauses()
    {
        for (Lit l : s.trail) {
            owl_assert(s.reasons[static_cast<size_t>(l.var())] == -1,
                       "root literal with a reason during simplify");
        }
        auto dead = std::remove_if(
            s.clauses.begin(), s.clauses.end(),
            [](const Solver::Clause &c) { return c.deleted; });
        s.clauses.erase(dead, s.clauses.end());
        s.compactArena();
    }

    /**
     * Restore the two-watched-literal machinery over the rewritten
     * database and re-propagate the root trail (simplification may
     * have enqueued fresh units).
     */
    void rebuildAndPropagate()
    {
        for (auto &w : s.watches)
            w.clear();
        for (size_t ci = 0; ci < s.clauses.size(); ci++) {
            const Solver::Clause &c = s.clauses[ci];
            if (c.deleted)
                continue;
            owl_assert(c.size >= 2,
                       "sub-binary clause left in the database");
            s.attachClause(static_cast<int>(ci));
        }
        s.propagateHead = 0;
        if (s.propagate() != -1)
            refute();
    }

    /**
     * Failed-literal probing: assume a literal at level 1; a conflict
     * proves its negation as a root unit (RUP by construction — the
     * conflict IS the unit propagation the checker replays). Budgeted
     * per round, rotating through the variables across rounds.
     */
    void probeFailedLiterals()
    {
        size_t budget = s.opts.simp.probeLimit;
        if (budget == 0)
            return;
        int n = s.nVars;
        if (n == 0)
            return;
        size_t probed = 0;
        int step = 0;
        for (; step < n && probed < budget && !refuted; step++) {
            int v = (s.probeCursor + step) % n;
            if (s.elimV[static_cast<size_t>(v)])
                continue;
            for (int sign = 0; sign < 2 && !refuted; sign++) {
                if (s.assigns[static_cast<size_t>(v)] !=
                    Solver::lUndef) {
                    break;
                }
                if (probed >= budget)
                    break;
                probed++;
                Lit l(v, sign == 1);
                s.trailLims.push_back(
                    static_cast<int>(s.trail.size()));
                s.enqueue(l, -1);
                int confl = s.propagate();
                s.backtrack(0);
                if (confl == -1)
                    continue;
                s.simpStatistics.failedLiterals++;
                Lit u = ~l;
                if (s.proof)
                    s.proof->addClause({u});
                s.enqueue(u, -1);
                if (s.propagate() != -1)
                    refute();
            }
        }
        s.probeCursor = (s.probeCursor + step) % n;
    }
};

bool
Solver::simplify()
{
    owl_assert(decisionLevel() == 0, "simplify requires level 0");
    if (unsatisfiable)
        return false;
    Simplifier simplifier(*this);
    return simplifier.run();
}

void
Solver::extendModel()
{
    // Backward replay: each eliminated variable's default unit is
    // encountered before (i.e. pushed after) its stored side clauses,
    // so the default applies unless a stored clause — whose non-v
    // literals are all false under the model — forces the other
    // polarity. Stored clauses only mention variables live at
    // elimination time or eliminated later (already restored by this
    // scan), so every literal read here is defined.
    for (size_t i = elimEnd.size(); i-- > 0;) {
        size_t begin = i == 0 ? 0 : elimEnd[i - 1];
        bool forced = true;
        for (size_t k = begin + 1; k < elimEnd[i]; k++) {
            Lit l = elimLits[k];
            uint8_t mv = model[static_cast<size_t>(l.var())];
            uint8_t lv = mv == lUndef
                             ? lUndef
                             : static_cast<uint8_t>(
                                   mv ^ (l.negated() ? 1 : 0));
            if (lv != lFalse) {
                forced = false;
                break;
            }
        }
        if (!forced)
            continue;
        Lit x = elimLits[begin];
        model[static_cast<size_t>(x.var())] =
            x.negated() ? lFalse : lTrue;
    }
}

} // namespace owl::sat
