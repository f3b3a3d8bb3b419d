#include "core/synthesis.h"

#include <atomic>
#include <iostream>
#include <vector>

#include "base/logging.h"
#include "oyster/lint.h"
#include "exec/jobs.h"
#include "exec/run_in_order.h"
#include "obs/obs.h"
#include "oyster/symeval.h"
#include "smt/solver.h"

namespace owl::synth
{

using oyster::SymbolicEvaluator;
using oyster::SymRun;
using smt::CheckResult;
using smt::TermRef;
using smt::TermTable;

const char *
strategyName(Strategy s)
{
    switch (s) {
      case Strategy::Monolithic: return "monolithic";
      case Strategy::PerInstruction: return "per-instruction";
      case Strategy::PerInstructionParallel:
        return "per-instruction-parallel";
    }
    return "?";
}

namespace
{

CegisOptions
cegisOptionsFrom(const SynthesisOptions &opts,
                 std::chrono::steady_clock::time_point deadline)
{
    CegisOptions c;
    c.maxIterations = opts.maxIterations;
    c.conflictLimit = opts.conflictLimit;
    c.deadline = deadline;
    c.incremental = opts.incremental;
    c.solver = opts.solver;
    return c;
}

/**
 * exec::runInOrder over instructions: `run(k, opts_k)` gets `opts`
 * with instruction k's own cancel flag in place of the caller's.
 */
template <class Run, class Ok>
auto
runInstrsInOrder(size_t n, int jobs, const CegisOptions &opts, Run run,
                 Ok ok)
{
    return exec::runInOrder(
        n, jobs, opts.cancelFlag,
        [&](size_t k, const std::atomic<bool> *cancel) {
            CegisOptions task_opts = opts;
            task_opts.cancelFlag = cancel;
            return run(k, task_opts);
        },
        ok);
}

/**
 * Monolithic synthesis (Equation (1)): one joint CEGIS query over the
 * whole specification. Hole implementations are per-instruction
 * constant vectors selected by the decode preconditions, so the
 * solution space matches what per-instruction + control union can
 * express — but the solver must handle the conjunction over all
 * instructions at once.
 */
class MonolithicSynthesizer
{
  public:
    MonolithicSynthesizer(const oyster::Design &sketch,
                          const ila::Ila &spec, const AbsFunc &alpha)
        : sketch(sketch), spec(spec), alpha(alpha),
          memNames(memoryNames(sketch))
    {
        for (const oyster::Decl &d : sketch.decls()) {
            if (d.kind == oyster::DeclKind::Hole)
                holes.push_back(&d);
        }
        for (const auto &i : spec.instrs())
            instrs.push_back(i.get());
    }

    SynthStatus
    run(PerInstrResults &results, const CegisOptions &opts,
        int &iterations)
    {
        obs::ScopedSpan span("cegis");
        span.attr("mono", 1);
        span.attr("instrs", instrs.size());

        // candidate[j][hole] for instruction j.
        std::vector<HoleValues> candidate(instrs.size());
        for (size_t j = 0; j < instrs.size(); j++) {
            for (const oyster::Decl *h : holes)
                candidate[j][h->name] = BitVec(h->width);
        }

        std::vector<Counterexample> cexes;
        for (int iter = 0; iter < opts.maxIterations; iter++) {
            iterations = iter + 1;
            OWL_COUNTER_INC("cegis.iterations");
            obs::ScopedSpan iter_span("cegis.iter");
            iter_span.attr("n", iter);
            iter_span.attr("cex_count", cexes.size());
            if (opts.expired())
                return SynthStatus::Timeout;
            Counterexample cex;
            SynthStatus v = verify(candidate, cex, opts);
            if (v == SynthStatus::Ok) {
                results.clear();
                for (size_t j = 0; j < instrs.size(); j++)
                    results.emplace_back(instrs[j]->name(),
                                         candidate[j]);
                return SynthStatus::Ok;
            }
            if (v == SynthStatus::Timeout)
                return SynthStatus::Timeout;
            cexes.push_back(std::move(cex));
            OWL_COUNTER_INC("cegis.counterexamples");
            OWL_TRACE_EVENT("cegis", "mono iter n=", iter,
                            " cex=", cexes.size());
            // Inter-step budget check (mirrors the per-instruction
            // loop): short SAT calls can slip under the CDCL deadline
            // stride, so the deadline must also be honored between
            // the verify and synth halves of an iteration.
            if (opts.expired())
                return SynthStatus::Timeout;
            SynthStatus s = synth(cexes, candidate, opts);
            if (s != SynthStatus::Ok)
                return s;
        }
        return SynthStatus::IterLimit;
    }

  private:
    const oyster::Design &sketch;
    const ila::Ila &spec;
    const AbsFunc &alpha;
    std::map<int, std::string> memNames;
    std::vector<const oyster::Decl *> holes;
    std::vector<const ila::Instr *> instrs;

    /** Fold per-instruction values into the hole's selection chain. */
    TermRef
    holeChain(TermTable &tt, const std::vector<TermRef> &pres,
              const std::vector<TermRef> &per_instr_vals) const
    {
        TermRef v = per_instr_vals.back();
        for (int j = per_instr_vals.size() - 2; j >= 0; j--)
            v = tt.mkIte(pres[j], per_instr_vals[j], v);
        return v;
    }

    SynthStatus
    verify(const std::vector<HoleValues> &candidate, Counterexample &cex,
           const CegisOptions &opts)
    {
        obs::ScopedSpan span("verify");
        TermTable tt;
        SymbolicEvaluator ev(sketch, tt);
        std::map<std::string, TermRef> hole_vars;
        for (const oyster::Decl *h : holes) {
            hole_vars[h->name] =
                tt.freshVar("holev." + h->name, h->width);
            ev.setHole(h->name, hole_vars[h->name]);
        }
        applyInitAliases(sketch, alpha, tt, ev);
        SymRun run = ev.run(alpha.cycles());
        SpecCompiler sc(spec, alpha, tt, run, sketch);
        std::vector<InstrConditions> conds = sc.compileAll();

        std::vector<TermRef> assertions;
        std::vector<TermRef> pres;
        for (const InstrConditions &c : conds)
            pres.push_back(c.pre);
        // Hole definition constraints: the hole equals the candidate
        // constant of whichever instruction's precondition holds.
        for (const oyster::Decl *h : holes) {
            std::vector<TermRef> vals;
            for (size_t j = 0; j < instrs.size(); j++)
                vals.push_back(tt.constant(candidate[j].at(h->name)));
            assertions.push_back(tt.mkEq(hole_vars[h->name],
                                         holeChain(tt, pres, vals)));
        }
        // ¬ ∧_j ((pre_j ∧ assumes) → posts_j)
        TermRef all = tt.trueTerm();
        for (const InstrConditions &c : conds)
            all = tt.mkAnd(all, c.implication(tt));
        assertions.push_back(tt.mkNot(all));

        smt::Model model;
        CheckResult r = smt::checkSat(tt, assertions, &model,
                                      opts.solveLimits());
        if (r == CheckResult::Unsat)
            return SynthStatus::Ok;
        if (r == CheckResult::Unknown)
            return SynthStatus::Timeout;
        extractCounterexample(tt, model, memNames, cex);
        return SynthStatus::Unsat;
    }

    SynthStatus
    synth(const std::vector<Counterexample> &cexes,
          std::vector<HoleValues> &candidate, const CegisOptions &opts)
    {
        obs::ScopedSpan span("synth");
        span.attr("cex_count", cexes.size());
        TermTable tt;
        // Per-instruction, per-hole constant variables.
        std::vector<std::map<std::string, TermRef>> cvars(instrs.size());
        for (size_t j = 0; j < instrs.size(); j++) {
            for (const oyster::Decl *h : holes) {
                cvars[j][h->name] = tt.freshVar(
                    "c." + std::to_string(j) + "." + h->name, h->width);
            }
        }

        std::vector<TermRef> assertions;
        for (const Counterexample &cex : cexes) {
            // Two-pass trick: first evaluate with throwaway hole vars
            // to learn the (concrete) preconditions under this
            // counterexample, then re-evaluate with the selected
            // instruction's constant vars plugged in.
            //
            // Preconditions depend only on leaves (decode is
            // spec-side), so the first pass folds them to constants.
            std::map<std::string, TermRef> probe;
            for (const oyster::Decl *h : holes)
                probe[h->name] = tt.freshVar("probe." + h->name,
                                             h->width);
            SymRun run0 = runWithCex(sketch, alpha, tt, probe, cex);
            SpecCompiler sc0(spec, alpha, tt, run0, sketch);
            std::vector<TermRef> pres;
            for (const auto &i : spec.instrs())
                pres.push_back(
                    sc0.compileInstr(*i).pre);

            std::map<std::string, TermRef> hole_terms;
            for (const oyster::Decl *h : holes) {
                std::vector<TermRef> vals;
                for (size_t j = 0; j < instrs.size(); j++)
                    vals.push_back(cvars[j].at(h->name));
                hole_terms[h->name] = holeChain(tt, pres, vals);
            }
            SymRun run = runWithCex(sketch, alpha, tt, hole_terms, cex);
            SpecCompiler sc(spec, alpha, tt, run, sketch);
            for (const auto &i : spec.instrs())
                assertions.push_back(sc.compileInstr(*i).implication(tt));
        }

        smt::Model model;
        CheckResult r = smt::checkSat(tt, assertions, &model,
                                      opts.solveLimits());
        if (r == CheckResult::Unsat)
            return SynthStatus::Unsat;
        if (r == CheckResult::Unknown)
            return SynthStatus::Timeout;
        for (size_t j = 0; j < instrs.size(); j++) {
            for (const oyster::Decl *h : holes) {
                const smt::Node &n = tt.node(cvars[j].at(h->name));
                candidate[j][h->name] = model.varValue(tt, n.a);
            }
        }
        return SynthStatus::Ok;
    }
};

} // namespace

SynthesisResult
synthesizeControl(oyster::Design &sketch, const ila::Ila &spec,
                  const AbsFunc &alpha, const SynthesisOptions &opts)
{
    obs::ScopedSpan span("synthesize");
    span.attr("instrs", spec.instrs().size());
    span.attr("strategy", strategyName(opts.strategy));
    OWL_COUNTER_INC("synth.runs");

    SynthesisResult result;
    auto start = std::chrono::steady_clock::now();
    std::chrono::steady_clock::time_point deadline{};
    if (opts.timeLimit.count() > 0)
        deadline = start + opts.timeLimit;
    CegisOptions copts = cegisOptionsFrom(opts, deadline);

    switch (opts.strategy) {
      case Strategy::PerInstruction: {
        InstrSynthesizer synth(sketch, spec, alpha);
        const HoleValues *pin = nullptr;
        HoleValues last;
        for (const auto &i : spec.instrs()) {
            if (opts.verbose)
                std::cerr << "[owl] synthesizing " << i->name()
                          << "...\n";
            CegisResult r = synth.synthesize(
                *i, opts.pinFirst ? pin : nullptr, copts);
            result.cegisIterations += r.iterations;
            if (r.status != SynthStatus::Ok) {
                result.status = r.status;
                result.failedInstr = i->name();
                break;
            }
            result.perInstr.emplace_back(i->name(), r.holes);
            last = r.holes;
            pin = &last;
        }
        break;
      }
      case Strategy::PerInstructionParallel: {
        int jobs = opts.jobs > 0 ? opts.jobs : exec::defaultJobs();
        span.attr("jobs", jobs);
        if (opts.verbose)
            std::cerr << "[owl] synthesizing "
                      << spec.instrs().size() << " instructions on "
                      << jobs << " worker(s)...\n";
        // No pinning: each instruction starts from the zero candidate,
        // exactly like a sequential pinFirst=false run, which is what
        // makes the merged result bit-identical to that run.
        std::vector<CegisResult> rs = runInstrsInOrder(
            spec.instrs().size(), jobs, copts,
            [&](size_t k, const CegisOptions &o) {
                InstrSynthesizer isynth(sketch, spec, alpha);
                return isynth.synthesize(*spec.instrs()[k], nullptr, o);
            },
            [](const CegisResult &r) {
                return r.status == SynthStatus::Ok;
            });
        for (size_t k = 0; k < rs.size(); k++) {
            const std::string &name = spec.instrs()[k]->name();
            result.cegisIterations += rs[k].iterations;
            if (rs[k].status == SynthStatus::Ok) {
                result.perInstr.emplace_back(name, std::move(rs[k].holes));
            } else {
                result.status = rs[k].status;
                result.failedInstr = name;
            }
        }
        break;
      }
      case Strategy::Monolithic: {
        MonolithicSynthesizer mono(sketch, spec, alpha);
        int iters = 0;
        result.status = mono.run(result.perInstr, copts, iters);
        result.cegisIterations = iters;
        break;
      }
    }

    if (result.status == SynthStatus::Ok)
        applyControlUnion(sketch, spec, alpha, result.perInstr);

    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    span.attr("status", synthStatusName(result.status));
    span.attr("iterations", result.cegisIterations);
    span.attr("millis", static_cast<int64_t>(result.seconds * 1000));
    return result;
}

SynthStatus
checkMutualExclusion(const oyster::Design &design, const ila::Ila &spec,
                     const AbsFunc &alpha, std::string *failed_pair,
                     const CegisOptions &opts)
{
    obs::ScopedSpan span("mutex_check");
    // Decode conditions only touch the pre-state, so one symbolic run
    // serves all the checks. Holes (if the design is still a
    // sketch) become fresh variables; decode conditions cannot depend
    // on them under instruction independence condition 2.
    TermTable tt;
    SymbolicEvaluator ev(design, tt);
    for (const oyster::Decl &dc : design.decls()) {
        if (dc.kind == oyster::DeclKind::Hole) {
            ev.setHole(dc.name,
                       tt.freshVar("hole." + dc.name, dc.width));
        }
    }
    applyInitAliases(design, alpha, tt, ev);
    SymRun run = ev.run(alpha.cycles());
    SpecCompiler sc(spec, alpha, tt, run, design);
    std::vector<TermRef> pres;
    std::vector<std::string> names;
    for (const auto &i : spec.instrs()) {
        pres.push_back(sc.compileInstr(*i).pre);
        names.push_back(i->name());
    }
    // One query per instruction: pre[a] against later[a] = pre[a+1] ∨
    // ... ∨ pre[n-1] (shared suffixes). Unsat clears all of a's pairs
    // at once; only Sat or Unknown falls back to a's pairs one by one,
    // so the first failing pair (and a Timeout) is the one the
    // pairwise order reports.
    std::vector<TermRef> later(pres.size(), tt.falseTerm());
    for (size_t b = pres.size(); b-- > 1;)
        later[b - 1] = tt.mkOr(pres[b], later[b]);
    for (size_t a = 0; a + 1 < pres.size(); a++) {
        if (smt::checkSat(tt, {tt.mkAnd(pres[a], later[a])}, nullptr,
                          opts.solveLimits()) == CheckResult::Unsat)
            continue;
        for (size_t b = a + 1; b < pres.size(); b++) {
            CheckResult r =
                smt::checkSat(tt, {tt.mkAnd(pres[a], pres[b])},
                              nullptr, opts.solveLimits());
            if (r == CheckResult::Unsat)
                continue;
            if (failed_pair)
                *failed_pair = names[a] + "/" + names[b];
            return r == CheckResult::Unknown ? SynthStatus::Timeout
                                             : SynthStatus::Unsat;
        }
    }
    return SynthStatus::Ok;
}

namespace
{

/**
 * Detect the decode cycle of a completed design with union-generated
 * precondition wires: the cycle in which the abstraction function's
 * fetch wire carries the same term as the spec's fetch expression.
 * Returns -1 when the design has no pre_* wires (e.g. a hand-written
 * reference) or no fetch entry.
 */
int
findDecodeCycle(const oyster::Design &design, const ila::Ila &spec,
                const AbsFunc &alpha)
{
    const AbsEntry *fe = alpha.fetchEntry();
    if (!fe || fe->fetchWire.empty() || !spec.hasFetch())
        return -1;
    for (const auto &i : spec.instrs()) {
        if (!design.hasDecl("pre_" + i->name()))
            return -1;
    }
    TermTable tt;
    SymbolicEvaluator ev(design, tt);
    applyInitAliases(design, alpha, tt, ev);
    SymRun run = ev.run(alpha.cycles());
    SpecCompiler sc(spec, alpha, tt, run, design);
    TermRef fetch = sc.fetchTerm();
    for (int t = 1; t <= alpha.cycles(); t++) {
        if (run.wireAt(fe->fetchWire, t) == fetch)
            return t;
    }
    return -1;
}

/**
 * One instruction's proof obligation Pre ∧ assumes ∧ ¬Post against
 * the completed design, on its own term table and solver. With a
 * decode cycle, the generated precondition wires are pinned to this
 * instruction's side of the case split. Unknown when `opts` has
 * expired (deadline or cancellation) before the query starts.
 */
CheckResult
verifyInstr(const oyster::Design &design, const ila::Ila &spec,
            const AbsFunc &alpha, const ila::Instr &instr,
            int decode_cycle, const CegisOptions &opts)
{
    obs::ScopedSpan span("verify.instr");
    span.attr("instr", instr.name());
    CheckResult r = CheckResult::Unknown;
    if (!opts.expired()) {
        TermTable tt;
        SymbolicEvaluator ev(design, tt);
        applyInitAliases(design, alpha, tt, ev);
        if (decode_cycle > 0) {
            for (const auto &j : spec.instrs()) {
                ev.pinWire("pre_" + j->name(), decode_cycle,
                           j.get() == &instr ? tt.trueTerm()
                                             : tt.falseTerm());
            }
        }
        SymRun run = ev.run(alpha.cycles());
        SpecCompiler sc(spec, alpha, tt, run, design);
        InstrConditions conds = sc.compileInstr(instr);
        std::vector<TermRef> pins;
        for (const auto &[computed, pinned] : run.pinConstraints)
            pins.push_back(tt.mkEq(computed, pinned));
        r = smt::checkSat(tt, conds.violation(tt, pins), nullptr,
                          opts.solveLimits());
    }
    span.attr("result", r == CheckResult::Unsat ? "unsat"
                        : r == CheckResult::Sat ? "sat"
                                                : "unknown");
    return r;
}

} // namespace

SynthStatus
verifyDesign(const oyster::Design &design, const ila::Ila &spec,
             const AbsFunc &alpha, std::string *failed_instr,
             const CegisOptions &opts, int jobs)
{
    obs::ScopedSpan span("verifyDesign");
    const size_t n = spec.instrs().size();
    span.attr("instrs", n);
    OWL_COUNTER_INC("verify.designs");
    lint::checkDesign(design, /*allow_holes=*/false);
    // With pairwise-disjoint decode conditions, the generated
    // precondition wires can be pinned to constants in the decode
    // cycle (case split), which folds the control union's selection
    // chains before the solver ever sees them. The pin equalities are
    // asserted, so this is an equisatisfiable rewrite, not an
    // assumption.
    bool exclusive =
        checkMutualExclusion(design, spec, alpha, nullptr, opts) ==
        SynthStatus::Ok;
    int decode_cycle =
        exclusive ? findDecodeCycle(design, spec, alpha) : -1;

    if (jobs <= 0)
        jobs = exec::defaultJobs();
    span.attr("jobs", jobs);
    std::vector<CheckResult> results = runInstrsInOrder(
        n, jobs, opts,
        [&](size_t k, const CegisOptions &o) {
            return verifyInstr(design, spec, alpha, *spec.instrs()[k],
                               decode_cycle, o);
        },
        [](CheckResult r) { return r == CheckResult::Unsat; });
    if (results.empty() || results.back() == CheckResult::Unsat)
        return SynthStatus::Ok;
    if (failed_instr)
        *failed_instr = spec.instrs()[results.size() - 1]->name();
    return results.back() == CheckResult::Unknown ? SynthStatus::Timeout
                                                  : SynthStatus::Unsat;
}

} // namespace owl::synth
