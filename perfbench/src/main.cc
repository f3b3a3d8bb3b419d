/**
 * @file
 * owl_perfbench: the repository benchmark.
 *
 *   owl_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--pins FILE] [--work-dir DIR] [--commit SHA]
 *                 [--source-digest HEX] [--corrupt-digest]
 *   owl_perfbench --record-pins
 *
 * Prints a metric table, then as its last stdout line one JSON object
 * {"correct", "attempted", "failed", "metrics"}. The full result
 * document, stamped with the build and run parameters, is written to
 * DIR/results/. Exit codes: 0 ran (see "correct"), 2 bad arguments,
 * 3 pinned inputs changed.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench.h"
#include "build_info.h"
#include "obs/obs.h"

using namespace pb;
namespace json = owl::obs::json;

namespace
{

const char *kWorkloads[] = {"registry-seq", "registry-jobs",
                            "serve-mix", "bundle-small"};

int
usage(const char *msg)
{
    std::cerr << "owl_perfbench: " << msg << "\n"
              << "usage: owl_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--pins FILE] "
                 "[--work-dir DIR] [--commit SHA] "
                 "[--source-digest HEX] [--corrupt-digest]\n"
              << "       owl_perfbench --record-pins\n";
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &a, std::string &err)
{
    for (int i = 1; i < argc; i++) {
        std::string k = argv[i];
        auto val = [&]() -> const char * {
            if (i + 1 >= argc) {
                err = k + " needs a value";
                return nullptr;
            }
            return argv[++i];
        };
        if (k == "--corrupt-digest") {
            a.corruptDigest = true;
        } else if (k == "--record-pins") {
            a.recordPins = true;
        } else if (k == "--workload" || k == "--seed" ||
                   k == "--seconds" || k == "--trace" || k == "--pins" ||
                   k == "--work-dir" || k == "--commit" ||
                   k == "--source-digest") {
            const char *v = val();
            if (!v)
                return false;
            char *end = nullptr;
            if (k == "--workload") {
                a.workload = v;
            } else if (k == "--seed") {
                a.seed = std::strtoull(v, &end, 10);
            } else if (k == "--seconds") {
                a.seconds = std::strtod(v, &end);
            } else if (k == "--trace") {
                a.trace = std::string(v) == "1";
                if (std::string(v) != "0" && !a.trace) {
                    err = "--trace takes 0 or 1";
                    return false;
                }
            } else if (k == "--pins") {
                a.pinsPath = v;
            } else if (k == "--work-dir") {
                a.workDir = v;
            } else if (k == "--commit") {
                a.commit = v;
            } else {
                a.sourceDigest = v;
            }
            if (end && *end != '\0') {
                err = k + ": not a number: " + v;
                return false;
            }
        } else {
            err = "unknown argument " + k;
            return false;
        }
    }
    if (a.recordPins)
        return true;
    bool known = false;
    for (const char *w : kWorkloads)
        known = known || a.workload == w;
    if (!known) {
        err = "unknown workload '" + a.workload + "'";
        return false;
    }
    if (!(a.seconds > 0)) {
        err = "--seconds must be positive";
        return false;
    }
    return true;
}

json::Value
metricsJson(const std::vector<Metric> &ms)
{
    json::Value out = json::Value::object();
    for (const Metric &m : ms) {
        json::Value one = json::Value::object();
        one.set("value", m.value);
        one.set("unit", m.unit);
        out.set(m.name, std::move(one));
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    std::string err;
    if (!parseArgs(argc, argv, a, err))
        return usage(err.c_str());

    // Untraced by default; workloads switch it on for traced passes.
    owl::obs::setEnabled(false);

    if (a.recordPins) {
        try {
            std::cout << recordPins().dump(2) << "\n";
        } catch (const InputsChanged &e) {
            std::cerr << "owl_perfbench: cannot record pins: " << e.what
                      << "\n";
            return 3;
        }
        return 0;
    }

    Pins pins;
    if (!loadPins(a.pinsPath, pins, err)) {
        std::cerr << "owl_perfbench: " << err << "\n";
        return 2;
    }

    Ledger ledger;
    RunResult res;
    try {
        if (a.workload == "registry-seq")
            res = runRegistry(a, pins, ledger, false);
        else if (a.workload == "registry-jobs")
            res = runRegistry(a, pins, ledger, true);
        else if (a.workload == "serve-mix")
            res = runServeMix(a, pins, ledger);
        else
            res = runBundles(a, pins, ledger);
    } catch (const InputsChanged &e) {
        std::cerr << "owl_perfbench: inputs changed: " << e.what
                  << " no longer matches " << a.pinsPath
                  << "; the workload would not be the one measured "
                     "before\n";
        return 3;
    }

    for (const std::string &e : ledger.errors)
        std::cerr << "owl_perfbench: FAILED " << e << "\n";

    const std::vector<Metric> &shown =
        a.trace ? res.perLayer : res.endToEnd;

    json::Value meta = json::Value::object();
    meta.set("commit", a.commit);
    meta.set("source_digest", a.sourceDigest);
    meta.set("nproc", static_cast<int64_t>(nprocs()));
    meta.set("build_type", PB_BUILD_TYPE);
    meta.set("compiler", PB_COMPILER);
    meta.set("cxx_flags", PB_CXX_FLAGS);
    meta.set("owl_obs", a.trace ? "1" : "0");
    meta.set("seed", static_cast<int64_t>(a.seed));
    meta.set("seconds", a.seconds);
    meta.set("workload", a.workload);
    meta.set("passes", static_cast<int64_t>(res.passes));
    meta.set("traced_passes", static_cast<int64_t>(res.tracedPasses));
    meta.set("corrupt_digest", a.corruptDigest);

    json::Value doc = json::Value::object();
    doc.set("schema", "owl.perfbench.v1");
    doc.set("meta", meta);
    doc.set("end_to_end", metricsJson(res.endToEnd));
    if (a.trace)
        doc.set("per_layer", metricsJson(res.perLayer));
    doc.set("detail", res.detail);
    json::Value errs = json::Value::array();
    for (const std::string &e : ledger.errors)
        errs.push(e);
    doc.set("errors", std::move(errs));

    std::filesystem::path dir =
        std::filesystem::path(a.workDir) / "results";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::filesystem::path file =
        dir / (a.workload + "-seed" + std::to_string(a.seed) + "-trace" +
               (a.trace ? "1" : "0") + ".json");
    std::ofstream(file) << doc.dump(2) << "\n";

    std::cout << "# " << meta.dump(0) << "\n";
    for (const Metric &m : shown) {
        char line[160];
        std::snprintf(line, sizeof line, "%-34s %16.6g %s\n",
                      m.name.c_str(), m.value, m.unit.c_str());
        std::cout << line;
    }
    std::cout << "# result document: " << file.string() << "\n";

    json::Value last = json::Value::object();
    last.set("correct", ledger.failed == 0 && ledger.attempted > 0);
    last.set("attempted", static_cast<int64_t>(ledger.attempted));
    last.set("failed", static_cast<int64_t>(ledger.failed));
    last.set("metrics", metricsJson(shown));
    std::cout << last.dump(0) << std::endl;
    return 0;
}
