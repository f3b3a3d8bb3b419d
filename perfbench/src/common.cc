#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <sched.h>
#include <sys/resource.h>

#include "bench.h"
#include "serve/fingerprint.h"

namespace pb
{

namespace json = owl::obs::json;

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

int
nprocs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace
{

/** The CPUs of the process's affinity mask, read before any pinning. */
const std::vector<int> &
startCpus()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> out;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0) {
            for (int c = 0; c < CPU_SETSIZE; c++) {
                if (CPU_ISSET(c, &set))
                    out.push_back(c);
            }
        }
        return out;
    }();
    return cpus;
}

} // namespace

int
cpuSlots()
{
    return std::max<int>(1, static_cast<int>(startCpus().size()));
}

void
pinCpu(int slot)
{
    const std::vector<int> &cpus = startCpus();
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (slot < 0) {
        for (int c : cpus)
            CPU_SET(c, &set);
    } else {
        CPU_SET(cpus[static_cast<size_t>(slot) % cpus.size()], &set);
    }
    sched_setaffinity(0, sizeof set, &set); // 0: the calling thread
}

double
slotMean(const std::map<int, std::vector<double>> &bySlot)
{
    double sum = 0;
    int n = 0;
    for (const auto &[slot, xs] : bySlot) {
        if (xs.empty())
            continue;
        sum += median(xs);
        n++;
    }
    return n ? sum / n : 0;
}

double
timeSetup(const std::function<void()> &build, std::vector<double> &reps)
{
    std::map<int, std::vector<double>> bySlot;
    for (int r = 0; r < kSetupReps; r++) {
        int slot = r % cpuSlots();
        pinCpu(slot);
        auto t0 = Clock::now();
        build();
        reps.push_back(secondsSince(t0));
        bySlot[slot].push_back(reps.back());
    }
    pinCpu(-1);
    return slotMean(bySlot);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
hashText(const std::string &s)
{
    owl::serve::Fnv64 h;
    h.str(s);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h.value()));
    return buf;
}

std::string
holesDigest(const owl::synth::PerInstrResults &r)
{
    std::string flat;
    for (const auto &[instr, holes] : r) {
        flat += instr + "{";
        for (const auto &[name, value] : holes)
            flat += name + "=" + value.toString() + ";";
        flat += "}";
    }
    return hashText(flat);
}

void
Ledger::record(const std::string &err)
{
    attempted++;
    if (err.empty())
        return;
    failed++;
    if (errors.size() < 8)
        errors.push_back(err);
}

bool
loadPins(const std::string &path, Pins &out, std::string &err)
{
    std::ifstream f(path);
    if (!f) {
        err = "cannot read " + path;
        return false;
    }
    std::stringstream ss;
    ss << f.rdbuf();
    json::Value doc;
    if (!json::Value::parse(ss.str(), doc, &err))
        return false;
    auto str = [](const json::Value &o, const char *k) {
        const json::Value *v = o.find(k);
        return v && v->isString() ? v->asString() : std::string();
    };
    const json::Value *ds = doc.find("designs");
    const json::Value *bs = doc.find("bundles");
    const json::Value *sv = doc.find("serve");
    const json::Value *bytes =
        sv ? sv->find("cache_bytes_after_warmup") : nullptr;
    if (!ds || !ds->isObject() || !bs || !bs->isArray() || !bytes ||
        !bytes->isObject()) {
        err = path + ": expected designs{}, bundles[] and "
                     "serve.cache_bytes_after_warmup{}";
        return false;
    }
    for (const auto &[name, v] : bytes->members())
        out.serveCacheBytes[name] = static_cast<uint64_t>(v.asInt());
    for (const auto &[name, d] : ds->members()) {
        out.designs[name] = {str(d, "sketch"), str(d, "spec"),
                             str(d, "alpha"), str(d, "holes_pin"),
                             str(d, "holes_nopin")};
    }
    for (const json::Value &b : bs->items()) {
        const json::Value *seed = b.find("fuzz_seed");
        if (!seed || !seed->isInt()) {
            err = path + ": bundle without fuzz_seed";
            return false;
        }
        out.bundles.push_back({static_cast<uint64_t>(seed->asInt()),
                               str(b, "text"), str(b, "holes_pin")});
    }
    return true;
}

} // namespace pb
