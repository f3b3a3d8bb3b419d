/**
 * @file
 * The design-flow workloads: registry-seq, registry-jobs and
 * bundle-small. One pass takes every design of the workload through
 * synthesis, verification and the netlist flow. Both modes call the
 * same public entry points; the traced mode also wraps each call in a
 * benchmark-side span and reads the program's own spans and counters.
 */

#include <algorithm>
#include <functional>
#include <optional>

#include "bench.h"
#include "core/absfunc_parser.h"
#include "core/synthesis.h"
#include "designs/registry.h"
#include "fuzz/generate.h"
#include "layers.h"
#include "netlist/compile.h"
#include "netlist/optimize.h"
#include "netlist/sim.h"
#include "obs/obs.h"
#include "oyster/interp.h"
#include "oyster/printer.h"
#include "rv/encode.h"
#include "rv/iss.h"
#include "text/bundle.h"
#include "text/ila_text.h"

namespace pb
{

using namespace owl;
namespace json = obs::json;

namespace
{

/** ROADMAP item 1(c)'s heavy registry designs. */
const std::vector<std::string> kRegistryDesigns = {
    "rv32i-2stage", "rv32i-zbkc-2stage", "crypto-core", "aes"};

/** Designs whose completed netlist is co-simulated against rv::Iss. */
bool
isRiscvTwoStage(const std::string &name)
{
    return name == "rv32i-2stage" || name == "rv32i-zbkc-2stage";
}

/** Times a scope into `acc` (ms) inside a benchmark-side span. */
class Timed
{
  public:
    Timed(const char *name, double &acc)
        : span(name), t0(Clock::now()), acc(acc)
    {
    }
    ~Timed() { acc += secondsSince(t0) * 1e3; }
    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    obs::ScopedSpan span;
    Clock::time_point t0;
    double &acc;
};

/** Timings (ms) and outputs of one design in one pass. */
struct ItemRun
{
    double make = 0, parse = 0, synth = 0, verify = 0;
    double compile = 0, optimize = 0, cosim = 0;
    int gatesRaw = 0, gatesOpt = 0;
    int slot = 0; ///< CPU slot it ran on (0 when not pinned)
    double flowMs() const
    {
        return parse + synth + verify + compile + optimize + cosim;
    }
};

/** One unit of a pass: a registry design or a pinned bundle. */
struct Item
{
    std::string name;
    std::string bundleText; ///< empty for registry designs
    std::string expectHoles;
    std::vector<uint32_t> issSeed; ///< per-round program seeds
    /** Index in the unshuffled input list: with the pass, it picks the
     * CPU slot, so an input runs on the same slots for every seed. */
    int home = 0;
};

/**
 * Run an RV32I program (one NOP after each instruction: the core is
 * software-interlocked) on the completed netlist and on rv::Iss, and
 * compare the register file and every stored word.
 */
std::string
issCosim(const netlist::Netlist &nl, bool zbkc, uint32_t progSeed)
{
    using namespace owl::rv;
    fuzz::Rng rng(progSeed);
    netlist::NetlistSim sim(nl);
    sim.reset();
    Iss iss;
    for (int i = 1; i < 32; i++) {
        auto v = static_cast<uint32_t>(rng.next());
        iss.regs[i] = v;
        sim.setMemWord("rf", i, BitVec(32, v));
    }
    std::vector<uint32_t> prog;
    const int n = 24;
    for (int i = 0; i < n; i++) {
        // Draw every field up front: argument evaluation order is
        // unspecified, and the program must depend on the seed alone.
        int op = rng.range(0, zbkc ? 13 : 11);
        auto rd = static_cast<uint32_t>(rng.range(0, 31));
        auto rs1 = static_cast<uint32_t>(rng.range(0, 31));
        auto rs2 = static_cast<uint32_t>(rng.range(0, 31));
        int imm = rng.range(-2048, 2047);
        auto upper = static_cast<uint32_t>(rng.next()) & 0xfffff;
        int addr = 0x400 + 4 * i;
        switch (op) {
          case 0: prog.push_back(ADD(rd, rs1, rs2)); break;
          case 1: prog.push_back(SUB(rd, rs1, rs2)); break;
          case 2: prog.push_back(XOR(rd, rs1, rs2)); break;
          case 3: prog.push_back(AND(rd, rs1, rs2)); break;
          case 4: prog.push_back(SLTU(rd, rs1, rs2)); break;
          case 5: prog.push_back(SRA(rd, rs1, rs2)); break;
          case 6: prog.push_back(ADDI(rd, rs1, imm)); break;
          case 7: prog.push_back(ORI(rd, rs1, imm)); break;
          case 8: prog.push_back(SLLI(rd, rs1, rs2)); break;
          case 9: prog.push_back(LUI(rd, upper)); break;
          case 10: prog.push_back(SW(rs2, 0, addr)); break;
          case 11: prog.push_back(LW(rd, 0, addr)); break;
          case 12: prog.push_back(CLMUL(rd, rs1, rs2)); break;
          default: prog.push_back(CLMULH(rd, rs1, rs2)); break;
        }
        prog.push_back(NOP());
    }
    for (size_t i = 0; i < prog.size(); i++) {
        sim.setMemWord("i_mem", i, BitVec(32, prog[i]));
        sim.setMemWord("d_mem", i, BitVec(32, prog[i]));
        iss.storeWord(static_cast<uint32_t>(4 * i), prog[i]);
    }
    for (size_t i = 0; i < prog.size(); i++) {
        if (!iss.step())
            return "iss stopped at instruction " + std::to_string(i);
        sim.step();
    }
    sim.step(); // drain the last instruction through stage 2
    for (int i = 0; i < 32; i++) {
        uint64_t got = sim.memWord("rf", i, 32).toUint64();
        if (got != iss.regs[i])
            return "iss cosim: x" + std::to_string(i) + " differs";
    }
    for (const auto &[waddr, val] : iss.mem) {
        if (sim.memWord("d_mem", waddr, 32).toUint64() != val)
            return "iss cosim: d_mem word " + std::to_string(waddr) +
                   " differs";
    }
    return "";
}

/**
 * Co-simulate the optimized netlist against oyster::Interpreter on
 * seeded input vectors: every output and register each cycle, and
 * the first words of each memory at the end.
 */
std::string
interpCosim(const oyster::Design &d, const netlist::Netlist &nl,
            uint64_t vecSeed, int vectors, int cycles)
{
    fuzz::Rng rng(vecSeed);
    for (int v = 0; v < vectors; v++) {
        oyster::Interpreter interp(d);
        netlist::NetlistSim sim(nl);
        interp.reset();
        sim.reset();
        // NetlistSim models ROMs as memories cleared by reset().
        for (const oyster::Decl &dc : d.decls()) {
            if (dc.kind != oyster::DeclKind::Rom)
                continue;
            for (size_t a = 0; a < dc.romContents.size(); a++)
                sim.setMemWord(dc.name, a, dc.romContents[a]);
        }
        for (int t = 1; t <= cycles; t++) {
            oyster::InputMap in;
            for (const oyster::Decl &dc : d.decls()) {
                if (dc.kind != oyster::DeclKind::Input)
                    continue;
                BitVec x(dc.width);
                for (int i = 0; i < dc.width; i++)
                    x.setBit(i, (rng.next() & 1) != 0);
                in[dc.name] = x;
            }
            interp.step(in);
            sim.step(std::map<std::string, BitVec>(in.begin(), in.end()));
            for (const oyster::Decl &dc : d.decls()) {
                bool differs = false;
                if (dc.kind == oyster::DeclKind::Output)
                    differs = !(interp.lastValue(dc.name) ==
                                sim.output(dc.name));
                else if (dc.kind == oyster::DeclKind::Register)
                    differs = !(interp.reg(dc.name) == sim.reg(dc.name));
                if (differs)
                    return "cosim: " + dc.name + " differs at cycle " +
                           std::to_string(t);
            }
        }
        for (const oyster::Decl &dc : d.decls()) {
            if (dc.kind != oyster::DeclKind::Memory)
                continue;
            uint64_t words = std::min<uint64_t>(16, 1ULL << dc.addrWidth);
            for (uint64_t a = 0; a < words; a++) {
                if (!(interp.memWord(dc.name, a) ==
                      sim.memWord(dc.name, a, dc.width)))
                    return "cosim: memory " + dc.name + " differs";
            }
        }
    }
    return "";
}

/** Deterministic Fisher-Yates shuffle driven by the run's seed. */
template <typename T>
void
shuffle(std::vector<T> &v, fuzz::Rng &rng)
{
    for (int i = static_cast<int>(v.size()) - 1; i > 0; i--)
        std::swap(v[i], v[rng.range(0, i)]);
}

/**
 * One representative pass: for each item the slotMean of its times
 * over passes, summed over items.
 */
double
medianPassMs(const std::vector<std::vector<ItemRun>> &passes,
             double (*field)(const ItemRun &))
{
    if (passes.empty())
        return 0;
    double total = 0;
    for (size_t i = 0; i < passes.front().size(); i++) {
        std::map<int, std::vector<double>> bySlot;
        for (const auto &p : passes)
            bySlot[p[i].slot].push_back(field(p[i]));
        total += slotMean(bySlot);
    }
    return total;
}

/**
 * Shared runner of the three flow workloads. `setup` builds the item
 * list (timed kSetupReps times, after the inputs' pins were checked
 * once), `runItem` performs one item.
 */
struct FlowWorkload
{
    FlowWorkload(const Args &a, Ledger &l) : args(a), ledger(l) {}

    const Args &args;
    Ledger &ledger;
    bool parallel = false;
    bool bundles = false;
    int jobs = 1;
    std::vector<Item> items;

    ItemRun runItem(const Item &it, bool firstPass, uint64_t passSeed);
};

ItemRun
FlowWorkload::runItem(const Item &it, bool firstPass, uint64_t passSeed)
{
    ItemRun run;
    std::string err;
    std::optional<designs::CaseStudy> cs;
    text::Bundle b;
    oyster::Design *sketch = nullptr;
    const ila::Ila *spec = nullptr;
    const synth::AbsFunc *alpha = nullptr;

    if (bundles) {
        {
            Timed t("bench.parse", run.parse);
            b = text::parseBundle(it.bundleText);
        }
        if (!b.complete()) {
            ledger.record(it.name + ": bundle did not parse complete");
            return run;
        }
        sketch = &*b.design;
        spec = b.spec.get();
        alpha = &*b.alpha;
    } else {
        {
            Timed t("bench.make", run.make);
            cs = designs::makeCaseStudy(it.name);
        }
        sketch = &cs->sketch;
        spec = &cs->spec;
        alpha = &cs->alpha;
    }

    synth::SynthesisOptions opts;
    if (parallel) {
        opts.strategy = synth::Strategy::PerInstructionParallel;
        opts.jobs = jobs;
    }
    synth::SynthesisResult r;
    {
        Timed t("bench.synth", run.synth);
        r = synth::synthesizeControl(*sketch, *spec, *alpha, opts);
    }
    if (r.status != synth::SynthStatus::Ok) {
        ledger.record(it.name + ": synthesis " +
                      synth::synthStatusName(r.status));
        return run;
    }
    std::string digest = holesDigest(r.perInstr);
    if (digest != it.expectHoles)
        err = it.name + ": holes digest " + digest + " != pinned " +
              it.expectHoles;

    std::string failedInstr;
    synth::SynthStatus v;
    {
        Timed t("bench.verify", run.verify);
        v = synth::verifyDesign(*sketch, *spec, *alpha, &failedInstr);
    }
    if (v != synth::SynthStatus::Ok && err.empty())
        err = it.name + ": verifyDesign " + synth::synthStatusName(v) +
              " at " + failedInstr;

    netlist::Netlist nl;
    {
        Timed t("bench.compile", run.compile);
        nl = netlist::compile(*sketch);
    }
    run.gatesRaw = nl.gateCount();
    {
        Timed t("bench.optimize", run.optimize);
        netlist::optimize(nl);
    }
    run.gatesOpt = nl.gateCount();

    if (bundles) {
        std::string c;
        {
            Timed t("bench.cosim", run.cosim);
            c = interpCosim(*sketch, nl, passSeed, 2, 8);
        }
        if (!c.empty() && err.empty())
            err = it.name + ": " + c;
    } else if (firstPass && isRiscvTwoStage(it.name)) {
        // Untimed reference check, once per run.
        for (uint32_t s : it.issSeed) {
            std::string c =
                issCosim(nl, it.name == "rv32i-zbkc-2stage", s);
            if (!c.empty() && err.empty())
                err = it.name + ": " + c;
        }
    }
    ledger.record(err);
    return run;
}

double fFlow(const ItemRun &r) { return r.flowMs(); }
double fSynth(const ItemRun &r) { return r.synth; }
double fVerify(const ItemRun &r) { return r.verify; }

/**
 * Passes a run takes at least: one pass of a registry workload outlasts
 * --seconds, and two give each design's figures a median; the traced
 * mode needs one untraced and one traced pass.
 */
constexpr int kMinPasses = 2;

RunResult
driveFlow(FlowWorkload &w, const std::function<void()> &setup)
{
    const Args &a = w.args;
    RunResult res;
    std::vector<double> setupS;
    double setupSec = timeSetup(setup, setupS);

    std::vector<std::vector<ItemRun>> untraced, traced;
    std::vector<LayerValues> layers;
    std::vector<int> gates; // per item, from the first pass
    std::vector<double> latencies;
    auto t0 = Clock::now();
    for (int pass = 0;; pass++) {
        // Whole passes only: the last one may end after --seconds.
        if (pass >= kMinPasses && secondsSince(t0) >= a.seconds)
            break;
        // The traced mode alternates untraced and traced passes, so
        // obs.overhead compares neighbours under the same load.
        bool tracedPass = a.trace && pass % 2 == 1;
        obs::setEnabled(tracedPass);
        if (tracedPass)
            beginTracedPass();
        std::vector<ItemRun> runs;
        for (const Item &it : w.items) {
            // Sequential flows rotate over the CPU slots, item by item
            // and pass by pass; the parallel strategy's pool threads
            // would inherit a pin, so it runs unpinned.
            int slot = w.parallel ? 0 : (it.home + pass) % cpuSlots();
            if (!w.parallel)
                pinCpu(slot);
            uint64_t vecSeed = a.seed * 1000003 + runs.size();
            runs.push_back(w.runItem(it, pass == 0, vecSeed));
            runs.back().slot = slot;
        }
        pinCpu(-1);
        for (size_t i = 0; i < runs.size(); i++) {
            if (pass == 0) {
                gates.push_back(runs[i].gatesOpt);
            } else if (runs[i].gatesOpt != gates[i]) {
                w.ledger.record(w.items[i].name +
                                ": optimized gate count changed "
                                "between passes");
            }
        }
        if (!tracedPass) {
            for (const ItemRun &r : runs)
                latencies.push_back(r.flowMs());
            untraced.push_back(std::move(runs));
            continue;
        }
        obs::setEnabled(false);
        TraceDigest d = digestTrace();
        LayerValues lv;
        double make = 0, parse = 0, bytes = 0, verify = 0;
        double compile = 0, optimize = 0, synthMs = 0, raw = 0;
        for (size_t i = 0; i < runs.size(); i++) {
            const ItemRun &r = runs[i];
            make += r.make;
            parse += r.parse;
            bytes += static_cast<double>(w.items[i].bundleText.size());
            verify += r.verify;
            compile += r.compile;
            optimize += r.optimize;
            synthMs += r.synth;
            raw += r.gatesRaw;
        }
        programLayers(d, w.jobs, synthMs, lv);
        // Self time of `synthesize`: applyControlUnion and the
        // sequential loop around the `cegis` spans. Under the parallel
        // strategy the adopted `cegis` spans outlast their parent, so
        // the union cannot be separated there.
        if (!w.parallel)
            lv["core.union_ms"] = d.selfMs["synthesize"];
        if (!w.bundles)
            lv["designs.make_ms"] = make;
        if (w.bundles && parse > 0) {
            lv["text.parse_ms"] = parse;
            lv["text.bytes_per_s"] = bytes / (parse / 1e3);
        }
        lv["core.verify_ms"] = verify;
        lv["netlist.compile_ms"] = compile;
        lv["netlist.optimize_ms"] = optimize;
        lv["netlist.gates_raw"] = raw;
        layers.push_back(std::move(lv));
        traced.push_back(std::move(runs));
    }
    obs::setEnabled(false);
    res.passes = static_cast<int>(untraced.size());
    res.tracedPasses = static_cast<int>(traced.size());

    double flowMs = medianPassMs(untraced, fFlow);
    double flowSum = 0;
    for (double l : latencies)
        flowSum += l;
    double gatesOpt = 0;
    for (int g : gates)
        gatesOpt += g;
    res.endToEnd = {
        {"setup_s", setupSec, "s"},
        {"flow_s", flowMs / 1e3, "s"},
        {"synth_s", medianPassMs(untraced, fSynth) / 1e3, "s"},
        {"verify_s", medianPassMs(untraced, fVerify) / 1e3, "s"},
        {"gates_opt", gatesOpt, "count"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"req_per_s",
         flowSum > 0 ? latencies.size() / (flowSum / 1e3) : 0, "1/s"},
        {"req_p50_ms", quantile(latencies, 0.5), "ms"},
        {"req_p90_ms", quantile(latencies, 0.9), "ms"},
    };

    LayerValues fixed;
    fixed["fail_frac"] =
        w.ledger.attempted
            ? static_cast<double>(w.ledger.failed) / w.ledger.attempted
            : 0;
    if (!traced.empty()) {
        double t = medianPassMs(traced, fFlow);
        fixed["obs.overhead"] = flowMs > 0 ? t / flowMs - 1 : 0;
    }
    res.perLayer = layerMetrics(layers, fixed);

    json::Value detail = json::Value::object();
    detail.set("setup_s", [&] {
        json::Value v = json::Value::array();
        for (double s : setupS)
            v.push(s);
        return v;
    }());
    json::Value passTimes = json::Value::array();
    for (const auto &p : untraced) {
        double s = 0;
        for (const ItemRun &r : p)
            s += r.flowMs();
        passTimes.push(s / 1e3);
    }
    detail.set("untraced_pass_s", std::move(passTimes));
    // Per-item medians (ms) over the untraced passes.
    json::Value perItem = json::Value::object();
    for (size_t i = 0; i < w.items.size() && !untraced.empty(); i++) {
        std::vector<double> syn, ver, net, flow;
        for (const auto &p : untraced) {
            syn.push_back(p[i].synth);
            ver.push_back(p[i].verify);
            net.push_back(p[i].compile + p[i].optimize);
            flow.push_back(p[i].flowMs());
        }
        json::Value one = json::Value::object();
        one.set("synth_ms", median(syn));
        one.set("verify_ms", median(ver));
        one.set("netlist_ms", median(net));
        one.set("flow_ms", median(flow));
        perItem.set(w.items[i].name, std::move(one));
    }
    detail.set("items", std::move(perItem));
    detail.set("latency_samples", static_cast<int64_t>(latencies.size()));
    detail.set("jobs", static_cast<int64_t>(w.jobs));
    res.detail = std::move(detail);
    return res;
}

} // namespace

void
checkDesignPins(const std::string &name, const designs::CaseStudy &cs,
                const Pins &pins)
{
    auto it = pins.designs.find(name);
    if (it == pins.designs.end())
        throw InputsChanged{name + ": no pins recorded"};
    const Pins::Design &p = it->second;
    if (hashText(oyster::printOyster(cs.sketch)) != p.sketch)
        throw InputsChanged{name + ": sketch"};
    if (hashText(text::printIla(cs.spec)) != p.spec)
        throw InputsChanged{name + ": spec"};
    if (hashText(synth::printAbsFunc(cs.alpha)) != p.alpha)
        throw InputsChanged{name + ": alpha"};
}

RunResult
runRegistry(const Args &a, const Pins &pins, Ledger &ledger,
            bool parallel)
{
    FlowWorkload w(a, ledger);
    w.parallel = parallel;
    w.jobs = parallel ? nprocs() : 1;
    for (const std::string &name : kRegistryDesigns) {
        std::optional<designs::CaseStudy> cs = designs::makeCaseStudy(name);
        if (!cs)
            throw InputsChanged{name + ": not in the registry"};
        checkDesignPins(name, *cs, pins);
    }
    auto setup = [&]() {
        fuzz::Rng rng(a.seed);
        std::vector<std::string> order = kRegistryDesigns;
        shuffle(order, rng);
        std::vector<Item> items;
        for (const std::string &name : order) {
            if (!designs::makeCaseStudy(name))
                throw InputsChanged{name + ": not in the registry"};
            Item it;
            it.name = name;
            it.home = static_cast<int>(
                std::find(kRegistryDesigns.begin(), kRegistryDesigns.end(),
                          name) -
                kRegistryDesigns.begin());
            const Pins::Design &p = pins.designs.at(name);
            it.expectHoles = parallel ? p.holesNoPin : p.holesPin;
            if (a.corruptDigest && items.empty())
                it.expectHoles[0] = it.expectHoles[0] == '0' ? '1' : '0';
            if (isRiscvTwoStage(name)) {
                for (int r = 0; r < 2; r++)
                    it.issSeed.push_back(
                        static_cast<uint32_t>(rng.next()));
            }
            items.push_back(std::move(it));
        }
        w.items = std::move(items);
    };
    return driveFlow(w, setup);
}

RunResult
runBundles(const Args &a, const Pins &pins, Ledger &ledger)
{
    FlowWorkload w(a, ledger);
    w.bundles = true;
    for (const Pins::Bundle &p : pins.bundles) {
        std::string txt =
            text::printBundle(fuzz::generateBundle(p.fuzzSeed));
        if (hashText(txt) != p.text || !text::parseBundle(txt).complete())
            throw InputsChanged{"bundle-" + std::to_string(p.fuzzSeed) +
                                ": bundle text"};
    }
    auto setup = [&]() {
        std::vector<Item> items;
        for (const Pins::Bundle &p : pins.bundles) {
            Item it;
            it.name = "bundle-" + std::to_string(p.fuzzSeed);
            it.home = static_cast<int>(items.size());
            it.bundleText =
                text::printBundle(fuzz::generateBundle(p.fuzzSeed));
            it.expectHoles = p.holesPin;
            if (a.corruptDigest && items.empty())
                it.expectHoles[0] = it.expectHoles[0] == '0' ? '1' : '0';
            items.push_back(std::move(it));
        }
        fuzz::Rng rng(a.seed);
        shuffle(items, rng);
        w.items = std::move(items);
    };
    return driveFlow(w, setup);
}

json::Value
recordPins()
{
    json::Value root = json::Value::object();
    json::Value ds = json::Value::object();
    for (const char *name :
         {"accumulator", "alu-machine", "rv32i", "rv32i-zbkb",
          "crypto-core", "aes", "rv32i-2stage", "rv32i-zbkc-2stage"}) {
        json::Value d = json::Value::object();
        designs::CaseStudy cs = *designs::makeCaseStudy(name);
        d.set("sketch", hashText(oyster::printOyster(cs.sketch)));
        d.set("spec", hashText(text::printIla(cs.spec)));
        d.set("alpha", hashText(synth::printAbsFunc(cs.alpha)));
        for (bool pinFirst : {true, false}) {
            designs::CaseStudy c = *designs::makeCaseStudy(name);
            synth::SynthesisOptions opts;
            opts.pinFirst = pinFirst;
            synth::SynthesisResult r =
                synth::synthesizeControl(c.sketch, c.spec, c.alpha, opts);
            if (r.status != synth::SynthStatus::Ok)
                throw InputsChanged{std::string(name) + ": synthesis"};
            d.set(pinFirst ? "holes_pin" : "holes_nopin",
                  holesDigest(r.perInstr));
        }
        ds.set(name, std::move(d));
    }
    root.set("designs", std::move(ds));

    // Four bundles from each of the generator's scenario families,
    // the lowest fuzz seeds that produce them.
    const int perFamily = 4;
    std::map<std::string, int> taken;
    json::Value bs = json::Value::array();
    for (uint64_t seed = 1; bs.size() < 5 * perFamily; seed++) {
        std::string fam = fuzz::scenarioName(seed);
        if (taken[fam] >= perFamily)
            continue;
        taken[fam]++;
        text::Bundle b = fuzz::generateBundle(seed);
        std::string txt = text::printBundle(b);
        text::Bundle c = text::parseBundle(txt);
        synth::SynthesisResult r =
            synth::synthesizeControl(*c.design, *c.spec, *c.alpha);
        if (r.status != synth::SynthStatus::Ok)
            throw InputsChanged{"bundle " + std::to_string(seed)};
        json::Value one = json::Value::object();
        one.set("fuzz_seed", static_cast<int64_t>(seed));
        one.set("scenario", fam);
        one.set("text", hashText(txt));
        one.set("holes_pin", holesDigest(r.perInstr));
        bs.push(std::move(one));
    }
    root.set("bundles", std::move(bs));
    root.set("serve", recordServePins());
    return root;
}

} // namespace pb
