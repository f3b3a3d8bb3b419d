/**
 * @file
 * CNF pre/inprocessing benchmark: raw CDCL vs the SatELite-style
 * simplifier (owl::sat::simp), per shipped design.
 *
 * Each (design, mode) measurement is a `preprocess.row` obs span
 * carrying wall-clock, CEGIS iterations, total SAT conflicts, and the
 * sat.preprocess.* rewrite counters; the registry is exported to
 * BENCH_preprocess.json (override with OWL_STATS_JSON).
 *
 * The two modes are bit-identical by construction (every synth query
 * pins its lexmin hole model), so the bench cross-checks the
 * per-instruction hole values and fails loudly on drift. On the
 * rv32i-2stage headline row the preprocessed run must additionally
 * spend strictly fewer SAT conflicts than the raw run — the paper's
 * claim that clause-database analysis pays for itself on the largest
 * case study.
 *
 * OWL_BENCH_QUICK=1 restricts to the accumulator for fast CI runs.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/synthesis.h"
#include "designs/accumulator.h"
#include "designs/alu_machine.h"
#include "designs/crypto_core.h"
#include "designs/riscv_single_cycle.h"
#include "designs/riscv_two_stage.h"
#include "obs/obs.h"

using namespace owl;
using namespace owl::designs;
using namespace owl::synth;

namespace
{

CaseStudy
makeDesign(const std::string &name)
{
    if (name == "accumulator")
        return makeAccumulator();
    if (name == "alu-machine")
        return makeAluMachine();
    if (name == "rv32i-2stage")
        return makeRiscvTwoStage(RiscvVariant::RV32I);
    if (name == "crypto-core")
        return makeCryptoCore();
    return makeRiscvSingleCycle(RiscvVariant::RV32I);
}

struct RowResult
{
    SynthesisResult synth;
    uint64_t conflicts = 0;
    uint64_t varsEliminated = 0;
    uint64_t clausesSubsumed = 0;
};

RowResult
row(const std::string &design, bool preprocess)
{
    obs::ScopedSpan span("preprocess.row");
    span.attr("design", design);
    span.attr("mode", preprocess ? "simp" : "raw");

    obs::Registry &reg = obs::Registry::instance();
    uint64_t conflicts0 = reg.counterValue("sat.conflicts");
    uint64_t elim0 = reg.counterValue("sat.preprocess.vars_eliminated");
    uint64_t sub0 = reg.counterValue("sat.preprocess.clauses_subsumed");

    CaseStudy cs = makeDesign(design);
    SynthesisOptions opts;
    opts.solver.preprocess = preprocess;
    RowResult out;
    out.synth = synthesizeControl(cs.sketch, cs.spec, cs.alpha, opts);
    out.conflicts = reg.counterValue("sat.conflicts") - conflicts0;
    out.varsEliminated =
        reg.counterValue("sat.preprocess.vars_eliminated") - elim0;
    out.clausesSubsumed =
        reg.counterValue("sat.preprocess.clauses_subsumed") - sub0;

    span.attr("status", synthStatusName(out.synth.status));
    span.attr("millis",
              static_cast<int64_t>(out.synth.seconds * 1000));
    span.attr("cegis_iterations", out.synth.cegisIterations);
    span.attr("conflicts", static_cast<int64_t>(out.conflicts));
    span.attr("vars_eliminated",
              static_cast<int64_t>(out.varsEliminated));
    span.attr("clauses_subsumed",
              static_cast<int64_t>(out.clausesSubsumed));
    printf("%-14s %-6s %10.3f %8d %10llu %12llu %10llu\n",
           design.c_str(), preprocess ? "simp" : "raw",
           out.synth.seconds, out.synth.cegisIterations,
           static_cast<unsigned long long>(out.conflicts),
           static_cast<unsigned long long>(out.varsEliminated),
           static_cast<unsigned long long>(out.clausesSubsumed));
    fflush(stdout);
    return out;
}

/** Per-instruction hole values must match across the two modes. */
bool
bitIdentical(const SynthesisResult &a, const SynthesisResult &b)
{
    if (a.perInstr.size() != b.perInstr.size())
        return false;
    for (size_t i = 0; i < a.perInstr.size(); i++) {
        if (a.perInstr[i].first != b.perInstr[i].first)
            return false;
        const auto &ha = a.perInstr[i].second;
        const auto &hb = b.perInstr[i].second;
        if (ha.size() != hb.size())
            return false;
        for (const auto &[name, v] : ha) {
            auto it = hb.find(name);
            if (it == hb.end() || !(it->second == v))
                return false;
        }
    }
    return true;
}

} // namespace

int
main()
{
    std::vector<std::string> designs = {"accumulator", "alu-machine",
                                        "rv32i", "rv32i-2stage",
                                        "crypto-core"};
    if (const char *quick = std::getenv("OWL_BENCH_QUICK");
        quick && *quick == '1')
        designs = {"accumulator"};

    printf("CNF preprocessing: raw CDCL vs SatELite-style simp\n");
    printf("%-14s %-6s %10s %8s %10s %12s %10s\n", "design", "mode",
           "time(s)", "iters", "conflicts", "eliminated", "subsumed");

    int failures = 0;
    for (const std::string &d : designs) {
        RowResult raw = row(d, false);
        RowResult simp = row(d, true);
        if (raw.synth.status != SynthStatus::Ok ||
            simp.synth.status != SynthStatus::Ok) {
            fprintf(stderr,
                    "[bench_preprocess] %s: synthesis failed\n",
                    d.c_str());
            failures++;
            continue;
        }
        if (!bitIdentical(raw.synth, simp.synth)) {
            fprintf(stderr, "[bench_preprocess] %s: hole values "
                            "DIVERGED between modes\n",
                    d.c_str());
            failures++;
        }
        if (simp.varsEliminated == 0) {
            fprintf(stderr, "[bench_preprocess] %s: preprocessing ran "
                            "but eliminated no variables\n",
                    d.c_str());
            failures++;
        }
        // rv32i-2stage is the headline row: preprocessing must
        // strictly beat the raw path on total SAT conflicts and book
        // real subsumption work.
        if (d == "rv32i-2stage") {
            if (simp.conflicts >= raw.conflicts) {
                fprintf(stderr,
                        "[bench_preprocess] %s: preprocessed "
                        "conflicts (%llu) not below raw (%llu)\n",
                        d.c_str(),
                        static_cast<unsigned long long>(
                            simp.conflicts),
                        static_cast<unsigned long long>(
                            raw.conflicts));
                failures++;
            }
            if (simp.clausesSubsumed == 0) {
                fprintf(stderr,
                        "[bench_preprocess] %s: no clauses subsumed "
                        "on the headline design\n",
                        d.c_str());
                failures++;
            }
        }
    }

    const char *stats_path = std::getenv("OWL_STATS_JSON");
    if (!stats_path)
        stats_path = "BENCH_preprocess.json";
    if (obs::Registry::instance().writeJsonFile(
            stats_path, {{"tool", "bench_preprocess"}})) {
        fprintf(stderr, "[bench_preprocess] wrote stats to %s\n",
                stats_path);
    } else {
        fprintf(stderr, "[bench_preprocess] failed to write %s\n",
                stats_path);
        failures++;
    }
    return failures == 0 ? 0 : 1;
}
