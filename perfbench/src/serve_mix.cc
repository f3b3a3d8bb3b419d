/**
 * @file
 * The serve-mix workload: one in-process serve::Server behind the
 * NDJSON serveSocket front end, driven by nproc closed-loop clients,
 * one connection per request, over a skewed recurring design mix.
 */

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <mutex>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "bench.h"
#include "designs/registry.h"
#include "fuzz/generate.h"
#include "layers.h"
#include "netlist/compile.h"
#include "netlist/optimize.h"
#include "obs/obs.h"
#include "serve/fingerprint.h"
#include "serve/server.h"
#include "serve/socket.h"

namespace pb
{

using namespace owl;
namespace json = obs::json;

namespace
{

/**
 * One pass is kFrames frames. A frame opens with one tail request for
 * a cheap design, then the head requests for the heavy designs a
 * synthesis service caches for (Zipf-like counts) in seeded order.
 * Every frame touches every head design after its tail request, so
 * the least recently used cache entries and pool slots always belong
 * to the tail: head requests hit, rv32i loses a few cache entries per
 * visit but keeps its pool slot (warm), and accumulator and
 * alu-machine lose both (cold). The mix is the same for every seed,
 * kMixHit / kMixWarm / kMixCold a pass, and every pass checks it.
 */
const std::vector<std::pair<std::string, int>> kHead = {
    {"rv32i-2stage", 3}, {"crypto-core", 2}, {"aes", 1},
    {"rv32i-zbkb", 1}};
const std::vector<std::string> kTail = {"accumulator", "rv32i",
                                        "alu-machine", "rv32i"};
constexpr int kFrames = 8;
/** The first kVerifyTail tail requests of a pass set "verify": true
 * (6 of 64 requests, about 10%). */
constexpr int kVerifyTail = 6;
constexpr int kMixHit = 56, kMixWarm = 4, kMixCold = 4;
/**
 * Cache byte cap and warm-pool slots, both below the working set: the
 * seven designs' entries take 62000 bytes (the head 44158, rv32i
 * 16613, accumulator 645, alu-machine 584) and need seven slots.
 */
constexpr size_t kCacheBytes = 61100;
constexpr size_t kPoolSlots = 6;

/**
 * Every design of the mix, in warm-up order: the tail in the order of
 * its last use in a pass, then the head. This leaves the cache and the
 * pool as every pass leaves them, so the first pass has the recurring
 * mix too. pins.json records the cache's bytes after each request.
 */
std::vector<std::string>
mixDesigns()
{
    std::vector<std::string> out = {"accumulator", "alu-machine", "rv32i"};
    for (auto d = kHead.rbegin(); d != kHead.rend(); ++d)
        out.push_back(d->first);
    return out;
}

struct Request
{
    std::string design;
    bool verify = false;
};

/**
 * The next pass of the request stream. Each pass draws a fresh head
 * order from the run's seeded generator; the tail, and so the mix of
 * outcomes, is the same in every pass.
 */
std::vector<Request>
makePass(fuzz::Rng &rng)
{
    std::vector<Request> s;
    for (int f = 0; f < kFrames; f++) {
        s.push_back({kTail[f % kTail.size()], f < kVerifyTail});
        size_t head = s.size();
        for (const auto &[d, n] : kHead) {
            for (int k = 0; k < n; k++)
                s.push_back({d, false});
        }
        for (size_t i = s.size() - 1; i > head; i--)
            std::swap(s[i], s[head + rng.range(0, static_cast<int>(i - head))]);
    }
    return s;
}

enum class Outcome : uint8_t { Hit, Warm, Cold };

struct Sample
{
    double ms = 0;       ///< client latency, connect to reply
    double serverMs = 0; ///< JobResult.seconds
    int iterations = 0;
    Outcome outcome = Outcome::Cold;
    bool verify = false;
};

/**
 * Replays the warm pool's slot LRU (one slot per design, touched at
 * every bind, least recently bound evicted beyond kPoolSlots) over the
 * order in which requests were served, which is request order (see
 * the client loop). A cache miss on a design whose slot survived is
 * warm; on a fresh slot, cold.
 */
class PoolReplay
{
  public:
    /** Bind `design`; true when its slot was already resident. */
    bool bind(const std::string &design)
    {
        auto it = std::find(lru.begin(), lru.end(), design);
        bool resident = it != lru.end();
        if (resident)
            lru.erase(it);
        lru.insert(lru.begin(), design);
        if (lru.size() > kPoolSlots)
            lru.pop_back();
        return resident;
    }

  private:
    std::vector<std::string> lru; ///< most recent first
};

/** A fresh connection to the server's socket; -1 on failure. */
int
connectTo(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** One NDJSON exchange on connection `fd`, which it closes. */
bool
exchange(int fd, const std::string &line, json::Value &out,
         std::string &err)
{
    bool ok = fd >= 0;
    std::string msg = line + "\n", buf;
    for (size_t off = 0; ok && off < msg.size();) {
        ssize_t n = ::write(fd, msg.data() + off, msg.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        ok = n > 0;
        off += ok ? static_cast<size_t>(n) : 0;
    }
    char chunk[4096];
    while (ok && buf.find('\n') == std::string::npos) {
        ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n < 0 && errno == EINTR)
            continue;
        ok = n > 0;
        if (ok)
            buf.append(chunk, static_cast<size_t>(n));
    }
    if (fd >= 0)
        ::close(fd);
    if (!ok) {
        err = "socket exchange failed";
        return false;
    }
    return json::Value::parse(buf.substr(0, buf.find('\n')), out, &err);
}

/** One NDJSON exchange on a fresh connection. */
bool
call(const std::string &path, const std::string &line, json::Value &out,
     std::string &err)
{
    return exchange(connectTo(path), line, out, err);
}

/** Parse a reply's holes back into per-instruction results. */
synth::PerInstrResults
replyHoles(const json::Value &reply)
{
    synth::PerInstrResults out;
    const json::Value *holes = reply.find("holes");
    if (!holes || !holes->isObject())
        return out;
    for (const auto &[instr, hv] : holes->members()) {
        synth::HoleValues vals;
        for (const auto &[name, v] : hv.members()) {
            const std::string &s = v.asString(); // "<width>'h<hex>"
            size_t q = s.find("'h");
            if (q == std::string::npos)
                continue;
            vals[name] =
                BitVec::fromHex(std::stoi(s.substr(0, q)), s.substr(q + 2));
        }
        out.emplace_back(instr, std::move(vals));
    }
    return out;
}

std::string
requestLine(const Request &r, int id)
{
    json::Value v = json::Value::object();
    v.set("id", std::to_string(id));
    v.set("design", r.design);
    if (r.verify)
        v.set("verify", true);
    return v.dump(0);
}

/** Owns the server and its socket thread; stops both on scope exit. */
class ServeHarness
{
  public:
    ServeHarness(const serve::ServerOptions &opts, std::string path)
        : server(opts), path(std::move(path))
    {
        thread = std::thread([this] {
            std::string err;
            if (!serve::serveSocket(server, this->path, &err) &&
                !err.empty())
                std::fprintf(stderr, "owl_perfbench: serve: %s\n",
                             err.c_str());
        });
    }
    ~ServeHarness()
    {
        json::Value reply;
        std::string err;
        // Retry until the listener takes the shutdown line.
        for (int i = 0; i < 500; i++) {
            if (call(path, R"({"cmd":"shutdown"})", reply, err))
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        thread.join();
        server.shutdown();
    }
    ServeHarness(const ServeHarness &) = delete;
    ServeHarness &operator=(const ServeHarness &) = delete;

    /** A request that waits for the listener to come up. */
    bool first(const std::string &line, json::Value &out,
               std::string &err)
    {
        for (int i = 0; i < 500; i++) {
            if (call(path, line, out, err))
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return false;
    }

    serve::Server server;
    std::string path;

  private:
    std::thread thread;
};

} // namespace

json::Value
recordServePins()
{
    serve::ServerOptions sopts;
    sopts.cacheBytes = kCacheBytes;
    sopts.poolSlots = kPoolSlots;
    serve::Server server(sopts);
    json::Value bytes = json::Value::object();
    for (const std::string &d : mixDesigns()) {
        serve::JobRequest req;
        req.design = d;
        if (!server.submit(req).get().ok())
            throw InputsChanged{d + ": serve warm-up"};
        bytes.set(d, server.cacheStats().bytes);
    }
    server.shutdown();
    json::Value out = json::Value::object();
    out.set("cache_bytes_after_warmup", std::move(bytes));
    return out;
}

RunResult
runServeMix(const Args &a, const Pins &pins, Ledger &ledger)
{
    RunResult res;
    const int clients = nprocs();

    // --- set-up: pinned inputs and the seeded request sequence ------
    const std::vector<std::string> mix = mixDesigns();
    std::map<std::string, std::vector<double>> makeMs, fpMs;
    for (const std::string &d : mix) {
        std::optional<designs::CaseStudy> cs = designs::makeCaseStudy(d);
        if (!cs)
            throw InputsChanged{d + ": not in the registry"};
        checkDesignPins(d, *cs, pins);
    }
    std::vector<Request> seq;
    std::vector<double> setupS;
    double setupSec = timeSetup(
        [&]() {
            for (const std::string &d : mix) {
                auto m0 = Clock::now();
                designs::CaseStudy cs = *designs::makeCaseStudy(d);
                makeMs[d].push_back(secondsSince(m0) * 1e3);
            }
            fuzz::Rng rng(a.seed);
            seq = makePass(rng);
        },
        setupS);
    for (int rep = 0; rep < kSetupReps; rep++) {
        for (const std::string &d : mix) {
            designs::CaseStudy cs = *designs::makeCaseStudy(d);
            auto f0 = Clock::now();
            serve::designFingerprint(cs.sketch, cs.spec, cs.alpha);
            fpMs[d].push_back(secondsSince(f0) * 1e3);
        }
    }

    std::filesystem::create_directories(a.workDir);
    std::string sock = a.workDir + "/serve-" + std::to_string(::getpid()) +
                       ".sock";
    serve::ServerOptions sopts;
    sopts.sessions = clients;
    sopts.cacheBytes = kCacheBytes;
    sopts.poolSlots = kPoolSlots;
    ServeHarness h(sopts, sock);

    // --- warm-up: one request per design (untimed), tail first so the
    // cache and pool start in their recurring state ---------------------
    PoolReplay pool;
    json::Value warmupBytes = json::Value::object(); ///< after each design
    std::map<std::string, std::string> expect;
    double gatesOpt = 0;
    int nextId = 0;
    for (const std::string &d : mix) {
        pool.bind(d);
        expect[d] = pins.designs.at(d).holesNoPin;
        if (a.corruptDigest && d == mix.front())
            expect[d][0] = expect[d][0] == '0' ? '1' : '0';
        json::Value reply;
        std::string err;
        if (!h.first(requestLine({d, false}, nextId++), reply, err)) {
            ledger.record(d + ": warm-up: " + err);
            continue;
        }
        const json::Value *st = reply.find("status");
        synth::PerInstrResults holes = replyHoles(reply);
        if (!st || st->asString() != "ok" ||
            holesDigest(holes) != expect[d]) {
            ledger.record(d + ": warm-up reply not ok with the no-pin "
                              "digest");
            continue;
        }
        uint64_t bytes = h.server.cacheStats().bytes;
        warmupBytes.set(d, bytes);
        if (pins.serveCacheBytes.count(d) == 0 ||
            pins.serveCacheBytes.at(d) != bytes)
            throw InputsChanged{d + ": cache bytes after its warm-up "
                                    "request"};
        designs::CaseStudy cs = *designs::makeCaseStudy(d);
        synth::applyControlUnion(cs.sketch, cs.spec, cs.alpha, holes);
        netlist::Netlist nl = netlist::compile(cs.sketch);
        netlist::optimize(nl);
        gatesOpt += nl.gateCount();
        ledger.record("");
    }

    // --- timed passes ------------------------------------------------
    std::vector<std::vector<Sample>> untraced;
    std::vector<double> untracedWall, tracedWall;
    std::vector<LayerValues> layers;
    serve::CacheStats cacheDelta;
    serve::SessionPoolStats poolDelta;
    fuzz::Rng passRng(a.seed);
    const std::vector<Request> firstPass = seq;
    auto t0 = Clock::now();
    for (int pass = 0;; pass++) {
        // Whole passes only: the last one may end after --seconds.
        // The traced mode needs one untraced and one traced pass.
        if (pass >= (a.trace ? 2 : 1) && secondsSince(t0) >= a.seconds)
            break;
        seq = makePass(passRng);
        bool tracedPass = a.trace && pass % 2 == 1;
        obs::setEnabled(tracedPass);
        if (tracedPass)
            beginTracedPass();
        serve::CacheStats c0 = h.server.cacheStats();
        serve::SessionPoolStats p0 = h.server.poolStats();

        std::vector<Sample> samples(seq.size());
        std::vector<std::string> errs(seq.size());
        std::mutex connectMu;
        size_t next = 0;
        int idBase = nextId;
        nextId += static_cast<int>(seq.size());
        auto client = [&]() {
            for (;;) {
                size_t i;
                int fd;
                Clock::time_point q0;
                {
                    // Connections enter the listener's FIFO backlog in
                    // request order, and the front end serves one at a
                    // time: service order is request order, so the
                    // outcome mix does not depend on thread timing.
                    std::lock_guard<std::mutex> lock(connectMu);
                    if ((i = next++) >= seq.size())
                        return;
                    q0 = Clock::now();
                    fd = connectTo(h.path);
                }
                const Request &r = seq[i];
                json::Value reply;
                std::string err;
                bool ok = exchange(fd, requestLine(r, idBase + i), reply, err);
                Sample &s = samples[i];
                s.ms = std::chrono::duration<double, std::milli>(
                           Clock::now() - q0)
                           .count();
                s.verify = r.verify;
                if (!ok) {
                    errs[i] = r.design + ": " + err;
                    continue;
                }
                const json::Value *st = reply.find("status");
                if (!st || st->asString() != "ok") {
                    errs[i] = r.design + ": status " +
                              (st ? st->asString() : "missing");
                    continue;
                }
                if (holesDigest(replyHoles(reply)) != expect.at(r.design)) {
                    errs[i] = r.design + ": reply holes differ from the "
                                         "pinned no-pin digest";
                    continue;
                }
                s.serverMs = reply.find("seconds")->asDouble() * 1e3;
                s.iterations =
                    static_cast<int>(reply.find("iterations")->asInt());
            }
        };
        auto w0 = Clock::now();
        std::vector<std::thread> threads;
        for (int c = 0; c < clients; c++)
            threads.emplace_back(client);
        for (std::thread &t : threads)
            t.join();
        double passS = secondsSince(w0);
        for (const std::string &e : errs)
            ledger.record(e);
        std::map<Outcome, int> count;
        for (size_t i = 0; i < seq.size(); i++) {
            bool warmSlot = pool.bind(seq[i].design);
            samples[i].outcome = samples[i].iterations == 0 ? Outcome::Hit
                                 : warmSlot                 ? Outcome::Warm
                                                            : Outcome::Cold;
            count[samples[i].outcome]++;
        }
        int hit = count[Outcome::Hit], warm = count[Outcome::Warm],
            cold = count[Outcome::Cold];
        ledger.record(hit == kMixHit && warm == kMixWarm && cold == kMixCold
                          ? ""
                          : "pass " + std::to_string(pass) + ": mix " +
                                std::to_string(hit) + "/" +
                                std::to_string(warm) + "/" +
                                std::to_string(cold) +
                                " hit/warm/cold, not the recurring one");

        if (!tracedPass) {
            serve::CacheStats c1 = h.server.cacheStats();
            serve::SessionPoolStats p1 = h.server.poolStats();
            cacheDelta.hits += c1.hits - c0.hits;
            cacheDelta.misses += c1.misses - c0.misses;
            poolDelta.reused += p1.reused - p0.reused;
            poolDelta.created += p1.created - p0.created;
            untracedWall.push_back(passS);
            untraced.push_back(std::move(samples));
            continue;
        }
        obs::setEnabled(false);
        tracedWall.push_back(passS);
        TraceDigest d = digestTrace();
        LayerValues lv;
        double serverMs = 0;
        for (const Sample &s : samples)
            serverMs += s.serverMs;
        programLayers(d, 0, serverMs, lv);
        if (auto v = d.durMs.find("verifyDesign"); v != d.durMs.end())
            lv["core.verify_ms"] = v->second;
        layers.push_back(std::move(lv));
    }
    obs::setEnabled(false);
    res.passes = static_cast<int>(untraced.size());
    res.tracedPasses = static_cast<int>(tracedWall.size());

    // --- metrics -----------------------------------------------------
    std::vector<double> lat, server, wait, synthPass, verifyPass;
    std::map<Outcome, std::vector<double>> byOutcome;
    double wall = 0;
    for (size_t p = 0; p < untraced.size(); p++) {
        double syn = 0, ver = 0;
        for (const Sample &s : untraced[p]) {
            lat.push_back(s.ms);
            server.push_back(s.serverMs);
            wait.push_back(s.ms - s.serverMs);
            byOutcome[s.outcome].push_back(s.ms);
            (s.verify ? ver : syn) += s.serverMs / 1e3;
        }
        synthPass.push_back(syn);
        verifyPass.push_back(ver);
        wall += untracedWall[p];
    }
    res.endToEnd = {
        {"setup_s", setupSec, "s"},
        {"flow_s", median(untracedWall), "s"},
        {"synth_s", median(synthPass), "s"},
        {"verify_s", median(verifyPass), "s"},
        {"gates_opt", gatesOpt, "count"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"req_per_s", wall > 0 ? lat.size() / wall : 0, "1/s"},
        {"req_p50_ms", quantile(lat, 0.5), "ms"},
        {"req_p90_ms", quantile(lat, 0.9), "ms"},
    };

    LayerValues fixed;
    double makeW = 0, fpW = 0;
    for (const Request &r : seq) {
        makeW += median(makeMs[r.design]);
        fpW += median(fpMs[r.design]);
    }
    fixed["designs.make_ms"] = makeW / seq.size();
    fixed["serve.fingerprint_ms"] = fpW / seq.size();
    fixed["serve.server_ms"] = median(server);
    fixed["serve.wait_ms.p50"] = quantile(wait, 0.5);
    fixed["serve.wait_ms.p90"] = quantile(wait, 0.9);
    uint64_t lookups = cacheDelta.hits + cacheDelta.misses;
    uint64_t checkouts = poolDelta.reused + poolDelta.created;
    fixed["serve.cache.hit_ratio"] =
        lookups ? static_cast<double>(cacheDelta.hits) / lookups : 0;
    fixed["serve.pool.reuse_ratio"] =
        checkouts ? static_cast<double>(poolDelta.reused) / checkouts : 0;
    const std::pair<Outcome, const char *> kinds[] = {
        {Outcome::Hit, "hit"}, {Outcome::Warm, "warm"},
        {Outcome::Cold, "cold"}};
    for (const auto &[o, name] : kinds) {
        const std::vector<double> &xs = byOutcome[o];
        fixed[std::string("serve.share.") + name] =
            lat.empty() ? 0 : static_cast<double>(xs.size()) / lat.size();
        fixed[std::string("serve.") + name + "_p50_ms"] = median(xs);
    }
    fixed["fail_frac"] =
        ledger.attempted
            ? static_cast<double>(ledger.failed) / ledger.attempted
            : 0;
    if (!tracedWall.empty() && median(untracedWall) > 0)
        fixed["obs.overhead"] =
            median(tracedWall) / median(untracedWall) - 1;
    res.perLayer = layerMetrics(layers, fixed);

    json::Value detail = json::Value::object();
    json::Value st = json::Value::array();
    for (double s : setupS)
        st.push(s);
    detail.set("setup_s", std::move(st));
    json::Value pw = json::Value::array();
    for (double s : untracedWall)
        pw.push(s);
    detail.set("untraced_pass_s", std::move(pw));
    json::Value order = json::Value::array();
    for (const Request &r : firstPass)
        order.push(r.design + (r.verify ? "+verify" : ""));
    detail.set("sequence", std::move(order));
    detail.set("latency_samples", static_cast<int64_t>(lat.size()));
    for (const auto &[o, name] : kinds)
        detail.set(std::string(name) + "_samples",
                   static_cast<int64_t>(byOutcome[o].size()));
    detail.set("clients", static_cast<int64_t>(clients));
    detail.set("cache_bytes_after_warmup", std::move(warmupBytes));
    res.detail = std::move(detail);
    return res;
}

} // namespace pb
