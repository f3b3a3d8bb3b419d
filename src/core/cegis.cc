#include "core/cegis.h"

#include <algorithm>
#include <optional>

#include "base/logging.h"
#include "obs/obs.h"
#include "oyster/symeval.h"
#include "smt/incremental.h"
#include "smt/solver.h"

namespace owl::synth
{

using oyster::SymbolicEvaluator;
using oyster::SymRun;
using smt::CheckResult;
using smt::TermRef;
using smt::TermTable;

const char *
synthStatusName(SynthStatus s)
{
    switch (s) {
      case SynthStatus::Ok: return "ok";
      case SynthStatus::Unsat: return "unsat";
      case SynthStatus::Timeout: return "timeout";
      case SynthStatus::IterLimit: return "iteration-limit";
    }
    return "?";
}

std::chrono::milliseconds
CegisOptions::remaining() const
{
    if (!hasDeadline())
        return std::chrono::milliseconds(0);
    auto now = std::chrono::steady_clock::now();
    if (now >= deadline)
        return std::chrono::milliseconds(1);
    return std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - now);
}

smt::SolveLimits
CegisOptions::solveLimits() const
{
    smt::SolveLimits limits;
    limits.conflictLimit = conflictLimit;
    if (hasDeadline())
        limits.timeLimit = remaining();
    limits.cancelFlag = cancelFlag;
    limits.solver = solver;
    return limits;
}

std::map<int, std::string>
memoryNames(const oyster::Design &sketch)
{
    std::map<int, std::string> out;
    int idx = 0;
    for (const oyster::Decl &d : sketch.decls()) {
        if (d.kind == oyster::DeclKind::Memory)
            out[idx] = d.name;
        idx++;
    }
    return out;
}

void
applyInitAliases(const oyster::Design &sketch, const AbsFunc &alpha,
                 TermTable &tt, SymbolicEvaluator &ev)
{
    for (const auto &[a, b] : alpha.initAliases()) {
        int w = sketch.decl(a).width;
        TermRef v = tt.freshVar("reg." + a + ".0", w);
        ev.setInitialReg(a, v);
        ev.setInitialReg(b, v);
    }
}

void
applyCexAliases(const AbsFunc &alpha, Counterexample &cex)
{
    for (const auto &[a, b] : alpha.initAliases()) {
        auto it = cex.regs.find(a);
        if (it != cex.regs.end())
            cex.regs[b] = it->second;
        else
            cex.regs.erase(b);
    }
}

SymRun
runWithCex(const oyster::Design &sketch, const AbsFunc &alpha,
           TermTable &tt, const std::map<std::string, TermRef> &hole_terms,
           Counterexample cex)
{
    applyCexAliases(alpha, cex);
    SymbolicEvaluator ev(sketch, tt);
    for (const auto &[name, term] : hole_terms)
        ev.setHole(name, term);
    for (const oyster::Decl &d : sketch.decls()) {
        if (d.kind == oyster::DeclKind::Register) {
            auto it = cex.regs.find(d.name);
            BitVec v = it != cex.regs.end() ? it->second
                                            : BitVec(d.width);
            ev.setInitialReg(d.name, tt.constant(v));
        } else if (d.kind == oyster::DeclKind::Input) {
            for (int t = 1; t <= alpha.cycles(); t++) {
                auto it = cex.inputs.find({d.name, t});
                BitVec v = it != cex.inputs.end() ? it->second
                                                  : BitVec(d.width);
                ev.setInput(d.name, t, tt.constant(v));
            }
        } else if (d.kind == oyster::DeclKind::Memory) {
            auto it = cex.mems.find(d.name);
            ev.setConcreteMem(d.name,
                              it != cex.mems.end()
                                  ? it->second
                                  : std::map<uint64_t, BitVec>{});
        }
    }
    return ev.run(alpha.cycles());
}

InstrSynthesizer::InstrSynthesizer(const oyster::Design &sketch,
                                   const ila::Ila &spec,
                                   const AbsFunc &alpha)
    : sketch(sketch), spec(spec), alpha(alpha),
      memNames(memoryNames(sketch))
{
}

HoleValues
InstrSynthesizer::zeroCandidate() const
{
    HoleValues hv;
    for (const oyster::Decl &d : sketch.decls()) {
        if (d.kind == oyster::DeclKind::Hole)
            hv.emplace(d.name, BitVec(d.width));
    }
    return hv;
}

void
extractCounterexample(const TermTable &tt, const smt::Model &model,
                      const std::map<int, std::string> &mem_names,
                      Counterexample &cex)
{
    // First pass: variables (initial registers and per-cycle inputs),
    // identified by the symbolic evaluator's naming scheme.
    smt::Assignment asg;
    std::vector<std::pair<TermRef, BitVec>> base_reads;
    for (const auto &[idx, val] : model.leafValues) {
        TermRef t{idx};
        const smt::Node &n = tt.node(t);
        if (n.op == smt::Op::Var) {
            const std::string &name = tt.varInfo(n.a).name;
            asg.setVar(n.a, val);
            if (name.rfind("reg.", 0) == 0 &&
                name.size() > 6 &&
                name.compare(name.size() - 2, 2, ".0") == 0) {
                cex.regs[name.substr(4, name.size() - 6)] = val;
            } else if (name.rfind("in.", 0) == 0) {
                size_t dot = name.rfind('.');
                std::string in_name = name.substr(3, dot - 3);
                int cycle = std::stoi(name.substr(dot + 1));
                cex.inputs[{in_name, cycle}] = val;
            }
        }
    }
    // Second pass: memory base reads. Addresses may be symbolic and
    // may depend on *other* base reads (e.g. a register index sliced
    // out of the fetched instruction word). Children always have
    // smaller term indices than their parents, so resolving base
    // reads in ascending index order and feeding each resolved word
    // back into the assignment handles those chains.
    std::vector<std::pair<uint32_t, BitVec>> base_reads_sorted;
    for (const auto &[idx, val] : model.leafValues) {
        if (tt.node(TermRef{idx}).op == smt::Op::BaseRead)
            base_reads_sorted.emplace_back(idx, val);
    }
    std::sort(base_reads_sorted.begin(), base_reads_sorted.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    for (const auto &[idx, val] : base_reads_sorted) {
        const smt::Node &n = tt.node(TermRef{idx});
        BitVec addr = evalTerm(tt, n.children[0], asg);
        asg.setMemWord(n.a, addr.toUint64(), val);
        auto it = mem_names.find(n.a);
        if (it == mem_names.end())
            continue;
        cex.mems[it->second][addr.toUint64()] = val;
    }
}

SynthStatus
InstrSynthesizer::verifyCandidate(const ila::Instr &instr,
                                  const HoleValues &candidate,
                                  Counterexample *cex,
                                  const CegisOptions &opts,
                                  smt::CheckStats *stats)
{
    obs::ScopedSpan span("verify");
    TermTable tt;
    SymbolicEvaluator ev(sketch, tt);
    for (const auto &[name, value] : candidate)
        ev.setHole(name, tt.constant(value));
    applyInitAliases(sketch, alpha, tt, ev);
    SymRun run = ev.run(alpha.cycles());

    SpecCompiler sc(spec, alpha, tt, run, sketch);
    // A model is a state where the candidate control violates the
    // instruction's semantics.
    std::vector<TermRef> assertions =
        sc.compileInstr(instr).violation(tt);

    smt::Model model;
    CheckResult r =
        smt::checkSat(tt, assertions, &model, opts.solveLimits(), stats);
    switch (r) {
      case CheckResult::Unsat:
        span.attr("result", "valid");
        return SynthStatus::Ok;
      case CheckResult::Unknown:
        span.attr("result", "timeout");
        return SynthStatus::Timeout;
      case CheckResult::Sat:
        span.attr("result", "refuted");
        if (cex) {
            extractCounterexample(tt, model, memNames, *cex);
            OWL_COUNTER_INC("cegis.counterexamples");
        }
        return SynthStatus::Unsat; // candidate refuted
    }
    owl_panic("unreachable");
}

namespace
{

/**
 * Encode one counterexample replay for one instruction: symbolic
 * holes, every other leaf pinned to the counterexample's concrete
 * state, yielding (Pre ∧ assumes) → posts as a single 1-bit term.
 * Shared by the fresh per-iteration path (which conjoins one term per
 * counterexample into each query) and the incremental path (which
 * adds each term as a new activation-literal group exactly once).
 */
TermRef
buildCexConstraint(const oyster::Design &sketch, const ila::Ila &spec,
                   const AbsFunc &alpha, TermTable &tt,
                   const std::map<std::string, TermRef> &hole_vars,
                   const ila::Instr &instr, const Counterexample &cex)
{
    SymRun run = runWithCex(sketch, alpha, tt, hole_vars, cex);
    SpecCompiler sc(spec, alpha, tt, run, sketch);
    return sc.compileInstr(instr).implication(tt);
}

/**
 * Fix the candidate to the lexicographically-minimal hole assignment
 * of the current (satisfiable) synth query: holes in name order, bits
 * msb-to-lsb, each bit pinned to 0 when a solution with that prefix
 * exists.
 *
 * The point is determinism across solving strategies: which model a
 * SAT solver returns depends on learned clauses, activities, and
 * saved phases, so an incremental session naturally drifts away
 * from a fresh solver-per-iteration run even though the queries are
 * equivalent. The lexmin assignment is a property of the formula
 * alone, so both paths — and a warm session reused from serve's pool
 * — land on bit-identical candidates, which keeps the whole CEGIS
 * trajectory (counterexamples included) reproducible.
 *
 * Model-guided: the caller's last check() was Sat, and the hole bits
 * of the latest Sat model satisfy the formula under the prefix fixed
 * so far. A bit that model has at 0 can be 0, so it is pinned with no
 * solve; only a bit the model has at 1 (or does not cover) is probed
 * with an assumption, and a Sat probe's model replaces the old one.
 * The hole bits are copied right after each Sat check, never read
 * after a later Unsat: the lazy-Ackermann loop can leave an unclean
 * model behind (IncrementalContext::modelValue).
 */
SynthStatus
canonicalizeHoles(smt::IncrementalContext &ctx,
                  const std::map<std::string, TermRef> &hole_vars,
                  const CegisOptions &opts, HoleValues &candidate)
{
    obs::ScopedSpan span("cegis.lexmin");
    span.attr("memo", 0);
    // Every hole bit in lexmin order: holes by name, msb first.
    std::vector<sat::Lit> bits;
    std::vector<int> widths;
    for (const auto &[name, var] : hole_vars) {
        std::vector<sat::Lit> lits = ctx.literalsOf(var);
        bits.insert(bits.end(), lits.rbegin(), lits.rend());
        widths.push_back(static_cast<int>(lits.size()));
    }
    std::vector<std::optional<bool>> model(bits.size());
    auto copyModel = [&] {
        for (size_t i = 0; i < bits.size(); i++)
            model[i] = ctx.modelValue(bits[i]);
    };
    copyModel();

    std::vector<sat::Lit> fixed;
    uint64_t probes = 0;
    for (size_t i = 0; i < bits.size(); i++) {
        fixed.push_back(~bits[i]);
        if (model[i] == false)
            continue;
        // Honor the run's budget between probes: each probe is
        // usually pure propagation, well below the CDCL deadline
        // stride, so without this check a long probe sequence could
        // overrun an already-expired deadline.
        if (opts.expired())
            return SynthStatus::Timeout;
        probes++;
        smt::CheckResult r =
            ctx.check(nullptr, opts.solveLimits(), nullptr, fixed);
        if (r == smt::CheckResult::Unknown)
            return SynthStatus::Timeout;
        if (r == smt::CheckResult::Sat) {
            copyModel();
        } else {
            // No solution has this bit 0 under the fixed prefix: it is
            // 1 in every remaining solution. A model that did not
            // cover the bit says nothing about the prefix with it at
            // 1, so it is dropped until the next Sat probe.
            fixed.back() = bits[i];
            if (!model[i].has_value())
                std::fill(model.begin(), model.end(), std::nullopt);
        }
    }
    span.attr("probes", probes);
    span.attr("skipped", bits.size() - probes);

    size_t i = 0;
    auto width = widths.begin();
    for (const auto &[name, var] : hole_vars) {
        BitVec value(*width);
        for (int b = *width - 1; b >= 0; b--, i++)
            value.setBit(b, fixed[i] == bits[i]);
        candidate[name] = value;
        ++width;
    }
    return SynthStatus::Ok;
}

} // namespace

SynthSession::SynthSession(const oyster::Design &sketch,
                           const ila::Ila &spec, const AbsFunc &alpha,
                           const std::string &instr_name,
                           const CegisOptions &opts)
    : sketch(sketch), spec(spec), alpha(alpha),
      instr_name(instr_name), instr(spec.instr(instr_name)),
      ctx(tt, opts.solver)
{
    // Hole variables are shared by every counterexample group,
    // exactly like the fresh path shares them per query.
    for (const oyster::Decl &d : sketch.decls()) {
        if (d.kind == oyster::DeclKind::Hole)
            holeVars[d.name] = tt.freshVar("hole." + d.name, d.width);
    }
}

void
SynthSession::addCex(const Counterexample &cex)
{
    TermRef c = buildCexConstraint(sketch, spec, alpha, tt, holeVars,
                                   instr, cex);
    ctx.addGroup({c});
}

SynthStatus
SynthSession::solve(HoleValues &candidate, const CegisOptions &opts)
{
    // addGroup dedups replayed batches, so an unchanged count is an
    // unchanged group set. Lazy Ackermann lemmas learned since are
    // consequences the eager encoding carries from the start, so they
    // do not move the lexmin either.
    if (ctx.numGroups() == memoGroups) {
        obs::ScopedSpan span("cegis.lexmin");
        span.attr("memo", 1);
        span.attr("probes", 0);
        span.attr("skipped", 0);
        candidate = memo;
        return SynthStatus::Ok;
    }
    if (opts.expired())
        return SynthStatus::Timeout;
    smt::CheckResult r = ctx.check(nullptr, opts.solveLimits());
    switch (r) {
      case smt::CheckResult::Unsat:
        return SynthStatus::Unsat;
      case smt::CheckResult::Unknown:
        return SynthStatus::Timeout;
      case smt::CheckResult::Sat:
        break;
    }
    SynthStatus s = canonicalizeHoles(ctx, holeVars, opts, candidate);
    if (s == SynthStatus::Ok) {
        memoGroups = ctx.numGroups();
        memo = candidate;
    }
    return s;
}

SynthStatus
InstrSynthesizer::synthStep(const ila::Instr &instr,
                            const std::vector<Counterexample> &cexes,
                            HoleValues &candidate,
                            const CegisOptions &opts,
                            smt::CheckStats *stats)
{
    obs::ScopedSpan span("synth");
    span.attr("cex_count", cexes.size());
    TermTable tt;

    // Shared hole variables across every counterexample replay.
    std::map<std::string, TermRef> hole_vars;
    for (const oyster::Decl &d : sketch.decls()) {
        if (d.kind == oyster::DeclKind::Hole)
            hole_vars[d.name] = tt.freshVar("hole." + d.name, d.width);
    }

    // Even the fresh path encodes through an IncrementalContext — a
    // throwaway one per call, so nothing carries over between
    // iterations — because hole canonicalization needs cheap
    // assumption-based re-solves against the already-blasted query.
    smt::IncrementalContext ctx(tt, opts.solver);
    for (const Counterexample &cex : cexes) {
        ctx.assertPermanent({buildCexConstraint(
            sketch, spec, alpha, tt, hole_vars, instr, cex)});
    }

    smt::CheckResult r = ctx.check(nullptr, opts.solveLimits(), stats);
    switch (r) {
      case CheckResult::Unsat:
        return SynthStatus::Unsat;
      case CheckResult::Unknown:
        return SynthStatus::Timeout;
      case CheckResult::Sat:
        break;
    }
    return canonicalizeHoles(ctx, hole_vars, opts, candidate);
}

namespace
{

/** Number of holes whose value differs between two candidates. */
int
holeDelta(const HoleValues &before, const HoleValues &after)
{
    int changed = 0;
    for (const auto &[name, v] : after) {
        auto it = before.find(name);
        if (it == before.end() || !(it->second == v))
            changed++;
    }
    return changed;
}

} // namespace

CegisResult
InstrSynthesizer::synthesize(const ila::Instr &instr,
                             const HoleValues *pin,
                             const CegisOptions &opts)
{
    obs::ScopedSpan span("cegis");
    span.attr("instr", instr.name());
    span.attr("pinned", pin ? 1 : 0);
    span.attr("incremental", opts.incremental ? 1 : 0);
    OWL_COUNTER_INC("cegis.instructions");

    CegisResult result;
    HoleValues candidate = pin ? *pin : zeroCandidate();
    // Fill any holes missing from the pin with zeros.
    for (auto &[name, v] : zeroCandidate())
        candidate.emplace(name, v);

    std::unique_ptr<SynthSession> session;
    bool pooled = false;
    if (opts.incremental) {
        if (opts.sessionPool) {
            session = opts.sessionPool->checkout(instr.name(), opts);
            pooled = session != nullptr;
        }
        if (!session) {
            session = std::make_unique<SynthSession>(
                sketch, spec, alpha, instr.name(), opts);
        }
    }
    // A pooled session carries stats from earlier runs; flush only
    // this run's deltas into the process counters.
    smt::IncrementalStats session_base;
    if (session)
        session_base = session->stats();

    // Ackermann constraints encoded for this instruction across all
    // its queries: every fresh verify/synth query's count plus (at
    // finish) the incremental session's cumulative total.
    uint64_t instr_ack = 0;

    auto finish = [&](SynthStatus status) {
        if (session) {
            const smt::IncrementalStats st = session->stats();
            OWL_COUNTER_ADD("cegis.incremental.solve_calls",
                            st.solveCalls - session_base.solveCalls);
            OWL_COUNTER_ADD("cegis.incremental.clauses_reused",
                            st.clausesReused -
                                session_base.clausesReused);
            OWL_COUNTER_ADD("cegis.incremental.cache_hits",
                            st.cacheHits - session_base.cacheHits);
            instr_ack += st.ackermannConstraints -
                         session_base.ackermannConstraints;
            if (pooled)
                opts.sessionPool->checkin(std::move(session));
        }
        OWL_HISTOGRAM_RECORD("cegis.instr_ackermann", instr_ack);
        result.status = status;
        span.attr("status", synthStatusName(status));
        span.attr("iterations", result.iterations);
        span.attr("ackermann", instr_ack);
        OWL_TRACE_EVENT("cegis", "done instr=", instr.name(),
                        " status=", synthStatusName(status),
                        " iterations=", result.iterations);
        return result;
    };

    // Warm start: a checked-out session's counterexamples are genuine
    // for this instruction, so every correct assignment satisfies them
    // and their lexmin is a sound first candidate (and an Unsat there
    // a sound Unsat). If it verifies, it is the lexmin of the correct
    // assignments, the same holes a cold run ends on. A pin is tried
    // as given instead: pin-and-relax keeps the pin when it verifies.
    const bool warm_start = !pin && session && session->groups() > 0;
    span.attr("warm_start", warm_start ? 1 : 0);
    if (warm_start) {
        SynthStatus s = session->solve(candidate, opts);
        if (s != SynthStatus::Ok)
            return finish(s);
    }

    std::vector<Counterexample> cexes;
    for (int iter = 0; iter < opts.maxIterations; iter++) {
        result.iterations = iter + 1;
        OWL_COUNTER_INC("cegis.iterations");
        obs::ScopedSpan iter_span("cegis.iter");
        iter_span.attr("n", iter);
        iter_span.attr("cex_count", cexes.size());
        if (opts.expired())
            return finish(SynthStatus::Timeout);
        Counterexample cex;
        smt::CheckStats verify_stats;
        SynthStatus v =
            verifyCandidate(instr, candidate, &cex, opts, &verify_stats);
        instr_ack += verify_stats.ackermannConstraints;
        if (v == SynthStatus::Ok) {
            result.holes = candidate;
            return finish(SynthStatus::Ok);
        }
        if (v == SynthStatus::Timeout)
            return finish(SynthStatus::Timeout);
        cexes.push_back(std::move(cex));
        // Inter-step budget check: verification can consume the whole
        // deadline in SAT calls too short to trip the CDCL-stride
        // poll, so re-check before paying for the synth step.
        if (opts.expired())
            return finish(SynthStatus::Timeout);
        HoleValues previous = candidate;
        SynthStatus s;
        if (session) {
            obs::ScopedSpan synth_span("synth");
            synth_span.attr("cex_count", cexes.size());
            synth_span.attr("incremental", 1);
            session->addCex(cexes.back());
            s = session->solve(candidate, opts);
        } else {
            smt::CheckStats synth_stats;
            s = synthStep(instr, cexes, candidate, opts, &synth_stats);
            instr_ack += synth_stats.ackermannConstraints;
        }
        if (s != SynthStatus::Ok)
            return finish(s);
        int delta = holeDelta(previous, candidate);
        iter_span.attr("hole_delta", delta);
        OWL_TRACE_EVENT("cegis", "iter instr=", instr.name(),
                        " n=", iter, " cex=", cexes.size(),
                        " hole_delta=", delta);
    }
    return finish(SynthStatus::IterLimit);
}

} // namespace owl::synth
