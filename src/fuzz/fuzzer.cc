#include "fuzz/fuzzer.h"

#include <cstdio>

#include "base/logging.h"
#include "fuzz/generate.h"
#include "fuzz/reduce.h"
#include "obs/obs.h"

namespace owl::fuzz
{

namespace
{

/**
 * Predicate for the reducer: the candidate still diverges on the
 * same oracle as the original finding. Oracle identity (not detail
 * equality) is the right invariant — details name lines/cycles that
 * shift as the test shrinks.
 */
bool
sameOracleStillFails(const std::string &cand_text,
                     const std::string &oracle,
                     const OracleOptions &oopt)
{
    text::Bundle b;
    try {
        b = text::parseBundle(cand_text);
    } catch (const FatalError &) {
        return false;
    }
    std::vector<Divergence> ds;
    try {
        ds = checkBundle(b, oopt);
    } catch (const FatalError &) {
        return false;
    } catch (const PanicError &) {
        return false;
    }
    for (const Divergence &d : ds) {
        if (d.oracle == oracle)
            return true;
    }
    return false;
}

} // namespace

FuzzReport
runFuzz(const FuzzOptions &opt)
{
    FuzzReport report;
    for (int i = 0; i < opt.runs; i++) {
        uint64_t seed = opt.seed + static_cast<uint64_t>(i);
        OWL_COUNTER_INC("fuzz.runs");
        report.runs++;

        OracleOptions oopt;
        oopt.cosimVectors = opt.cosimVectors;
        oopt.cosimCycles = opt.cosimCycles;
        oopt.solver = opt.solver;
        oopt.seed = seed;

        text::Bundle b;
        std::vector<Divergence> ds;
        try {
            b = generateBundle(seed);
            ds = checkBundle(b, oopt);
        } catch (const FatalError &e) {
            ds.push_back({"synth", std::string("exception: ") +
                                       e.what()});
        } catch (const PanicError &e) {
            ds.push_back({"synth", std::string("panic: ") +
                                       e.what()});
        }

        if (opt.verbose) {
            std::fprintf(stderr, "[fuzz] seed %llu (%s): %s\n",
                         static_cast<unsigned long long>(seed),
                         scenarioName(seed).c_str(),
                         ds.empty() ? "ok"
                                    : ds.front().oracle.c_str());
        }
        if (ds.empty())
            continue;

        OWL_COUNTER_ADD("fuzz.divergences",
                        static_cast<int64_t>(ds.size()));
        report.divergences += static_cast<int>(ds.size());

        Finding f;
        f.seed = seed;
        f.scenario = scenarioName(seed);
        f.oracle = ds.front().oracle;
        f.detail = ds.front().detail;
        // The bundle may itself be what failed to build; guard the
        // print the same way the oracles guard their runs.
        try {
            f.bundleText = text::printBundle(b);
        } catch (const FatalError &e) {
            f.bundleText =
                std::string("# unprintable bundle: ") + e.what();
        }
        f.minimizedText = f.bundleText;
        if (opt.reduce && !f.bundleText.empty() &&
            f.bundleText[0] != '#') {
            ReduceStats rs;
            f.minimizedText = reduceBundleText(
                f.bundleText,
                [&](const std::string &cand) {
                    return sameOracleStillFails(cand, f.oracle, oopt);
                },
                opt.reduceSteps, &rs);
        }
        report.findings.push_back(std::move(f));
        if (opt.maxFindings > 0 &&
            static_cast<int>(report.findings.size()) >=
                opt.maxFindings) {
            break;
        }
    }
    return report;
}

std::vector<Divergence>
replayBundleText(const std::string &text, const OracleOptions &opt)
{
    text::Bundle b = text::parseBundle(text);
    return checkBundle(b, opt);
}

} // namespace owl::fuzz
