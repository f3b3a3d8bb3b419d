#include "layers.h"

#include <algorithm>
#include <set>

#include "obs/obs.h"

namespace pb
{

namespace json = owl::obs::json;

const std::vector<std::pair<std::string, std::string>> &
layerCatalogue()
{
    static const std::vector<std::pair<std::string, std::string>> cat = {
        {"designs.make_ms", "ms"},
        {"text.parse_ms", "ms"},
        {"text.bytes_per_s", "B/s"},
        {"core.instr_ms.p50", "ms"},
        {"core.instr_ms.p90", "ms"},
        {"core.instr_ms.max", "ms"},
        {"core.cegis_iterations", "count"},
        {"core.union_ms", "ms"},
        {"core.verify_ms", "ms"},
        {"core.mutex_ms", "ms"},
        {"smt.checks", "count"},
        {"smt.sat_vars", "count"},
        {"smt.term_nodes", "count"},
        {"smt.ackermann.lemmas", "count"},
        {"smt.ackermann.rounds", "count"},
        {"smt.query_ms.mean", "ms"},
        {"smt.checkSat.self_ms", "ms"},
        {"smt.bitblast.self_ms", "ms"},
        {"sat.conflicts", "count"},
        {"sat.propagations", "count"},
        {"sat.solves", "count"},
        {"sat.preprocess.vars_eliminated", "count"},
        {"sat.simplify.self_ms", "ms"},
        {"sat.solve.self_ms", "ms"},
        {"sat.simplify.share", "ratio"},
        {"oyster.symeval.self_ms", "ms"},
        {"exec.busy_share", "ratio"},
        {"exec.critical_path_ms", "ms"},
        {"serve.fingerprint_ms", "ms"},
        {"serve.server_ms", "ms"},
        {"serve.wait_ms.p50", "ms"},
        {"serve.wait_ms.p90", "ms"},
        {"serve.cache.hit_ratio", "ratio"},
        {"serve.pool.reuse_ratio", "ratio"},
        {"serve.share.hit", "ratio"},
        {"serve.share.warm", "ratio"},
        {"serve.share.cold", "ratio"},
        {"serve.hit_p50_ms", "ms"},
        {"serve.warm_p50_ms", "ms"},
        {"serve.cold_p50_ms", "ms"},
        {"netlist.compile_ms", "ms"},
        {"netlist.optimize_ms", "ms"},
        {"netlist.gates_raw", "count"},
        {"unattributed.share", "ratio"},
        {"obs.overhead", "ratio"},
        {"fail_frac", "ratio"},
    };
    return cat;
}

namespace
{

/**
 * Spans whose self time belongs to no single layer: the CEGIS control
 * loops and the benchmark's own wrappers. Their self time inside a
 * synthesis root is what the program's spans leave unattributed.
 */
const std::set<std::string> kStructural = {
    "bench.synth", "serve.request", "synthesize", "cegis",
    "cegis.iter",  "synth",         "verify",
};

/** Spans whose individual durations are kept. */
const std::set<std::string> kInstances = {"cegis"};

double
durMs(const json::Value &span)
{
    const json::Value *d = span.find("dur_ns");
    return d ? static_cast<double>(d->asInt()) / 1e6 : 0.0;
}

void
walk(const json::Value &span, bool inSynth, TraceDigest &out)
{
    const std::string &name = span.find("name")->asString();
    double dur = durMs(span);
    double children = 0;
    const json::Value *kids = span.find("children");
    if (kids) {
        for (const json::Value &c : kids->items())
            children += durMs(c);
    }
    // Adopted children of a parallel span run on other lanes and can
    // sum past the parent's wall time.
    double self = std::max(0.0, dur - children);
    out.selfMs[name] += self;
    out.durMs[name] += dur;
    if (kInstances.count(name))
        out.instances[name].push_back(dur);
    bool synth = inSynth || name == "bench.synth" ||
                 name == "serve.request";
    if (synth) {
        out.synthSelfMs += self;
        if (kStructural.count(name))
            out.unattributedMs += self;
    }
    if (kids) {
        for (const json::Value &c : kids->items())
            walk(c, synth, out);
    }
}

double
get(const std::map<std::string, double> &m, const std::string &k)
{
    auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
}

} // namespace

void
beginTracedPass()
{
    owl::obs::Registry::instance().reset();
}

TraceDigest
digestTrace()
{
    TraceDigest d;
    json::Value doc = owl::obs::Registry::instance().toJson();
    if (const json::Value *spans = doc.find("spans")) {
        for (const json::Value &s : spans->items())
            walk(s, false, d);
    }
    return d;
}

void
programLayers(const TraceDigest &d, int jobs, double synthWallMs,
              LayerValues &out)
{
    auto &reg = owl::obs::Registry::instance();
    for (const char *c :
         {"smt.checks", "smt.sat_vars", "smt.term_nodes",
          "smt.ackermann.lemmas", "smt.ackermann.rounds",
          "sat.conflicts", "sat.propagations", "sat.solves",
          "sat.preprocess.vars_eliminated"})
        out[c] = static_cast<double>(reg.counterValue(c));
    out["core.cegis_iterations"] =
        static_cast<double>(reg.counterValue("cegis.iterations"));

    for (const auto &[name, h] : reg.histograms()) {
        if (name == "smt.query_ns" && h.count > 0)
            out["smt.query_ms.mean"] =
                static_cast<double>(h.sum) / h.count / 1e6;
    }

    out["smt.checkSat.self_ms"] = get(d.selfMs, "smt.checkSat");
    out["smt.bitblast.self_ms"] = get(d.selfMs, "smt.bitblast");
    double simp = get(d.selfMs, "sat.simplify");
    double solve = get(d.selfMs, "sat.solve");
    out["sat.simplify.self_ms"] = simp;
    out["sat.solve.self_ms"] = solve;
    if (simp + solve > 0)
        out["sat.simplify.share"] = simp / (simp + solve);
    out["oyster.symeval.self_ms"] = get(d.selfMs, "symeval.run");
    out["core.mutex_ms"] = get(d.durMs, "mutex_check");

    // Per-instruction CEGIS spans, one per InstrSynthesizer::synthesize
    // call: the unit of work the exec pool schedules under the parallel
    // strategy.
    auto it = d.instances.find("cegis");
    if (it != d.instances.end() && !it->second.empty()) {
        double busy = 0, longest = 0;
        for (double ms : it->second) {
            busy += ms;
            longest = std::max(longest, ms);
        }
        out["core.instr_ms.p50"] = quantile(it->second, 0.5);
        out["core.instr_ms.p90"] = quantile(it->second, 0.9);
        out["core.instr_ms.max"] = longest;
        out["exec.critical_path_ms"] = longest;
        if (synthWallMs > 0 && jobs > 0)
            out["exec.busy_share"] = busy / (jobs * synthWallMs);
    }
    if (d.synthSelfMs > 0)
        out["unattributed.share"] = d.unattributedMs / d.synthSelfMs;
}

std::vector<Metric>
layerMetrics(const std::vector<LayerValues> &passes,
             const LayerValues &fixed)
{
    std::vector<Metric> out;
    for (const auto &[name, unit] : layerCatalogue()) {
        double v = 0;
        if (auto f = fixed.find(name); f != fixed.end()) {
            v = f->second;
        } else {
            std::vector<double> xs;
            for (const LayerValues &p : passes) {
                if (auto i = p.find(name); i != p.end())
                    xs.push_back(i->second);
            }
            v = median(xs);
        }
        out.push_back({name, v, unit});
    }
    return out;
}

} // namespace pb
