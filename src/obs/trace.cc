#include "obs/trace.h"

#include <algorithm>
#include <fstream>
#include <set>

namespace owl::obs
{

namespace
{

constexpr int kTracePid = 1;

double
usFromNs(uint64_t ns)
{
    // ns < 2^53 for any realistic run, so the division is exact to
    // nanosecond granularity and event order survives the conversion.
    return static_cast<double>(ns) / 1000.0;
}

int64_t
intField(const json::Value &obj, const char *key, int64_t fallback)
{
    const json::Value *v = obj.find(key);
    return v && v->isNumber() ? v->asInt() : fallback;
}

/**
 * One span -> one "X" event (+ an "s"/"f" flow pair when the span was
 * adopted across lanes). Children recurse with this span as parent.
 */
void
walkSpan(const json::Value &span, int parent_lane, bool has_parent,
         std::vector<json::Value> &events, uint64_t &next_flow_id,
         std::set<int> &lanes)
{
    const json::Value *name = span.find("name");
    uint64_t start_ns =
        static_cast<uint64_t>(intField(span, "start_ns", 0));
    uint64_t dur_ns =
        static_cast<uint64_t>(intField(span, "dur_ns", 0));
    int lane = static_cast<int>(intField(span, "lane", 0));
    lanes.insert(lane);

    json::Value ev = json::Value::object();
    ev.set("name", name && name->isString() ? name->asString()
                                            : std::string("span"));
    ev.set("cat", "obs");
    ev.set("ph", "X");
    ev.set("ts", usFromNs(start_ns));
    ev.set("dur", usFromNs(dur_ns));
    ev.set("pid", kTracePid);
    ev.set("tid", lane);

    json::Value args = json::Value::object();
    if (const json::Value *attrs = span.find("attrs")) {
        if (attrs->isObject()) {
            for (const auto &[k, v] : attrs->members())
                args.set(k, v);
        }
    }

    // A child recorded on a different lane than its parent is an
    // adopted span: work this span dispatched to a worker thread
    // (TaskSpanContext). Link it back with a flow arrow and stamp the
    // id into args so validators can pair arrows with spans.
    if (has_parent && lane != parent_lane) {
        uint64_t id = next_flow_id++;
        args.set("flow", static_cast<int64_t>(id));

        json::Value s = json::Value::object();
        s.set("name", "adopt");
        s.set("cat", "obs");
        s.set("ph", "s");
        s.set("id", static_cast<int64_t>(id));
        s.set("ts", usFromNs(start_ns));
        s.set("pid", kTracePid);
        s.set("tid", parent_lane);
        events.push_back(std::move(s));

        json::Value f = json::Value::object();
        f.set("name", "adopt");
        f.set("cat", "obs");
        f.set("ph", "f");
        f.set("bp", "e");
        f.set("id", static_cast<int64_t>(id));
        f.set("ts", usFromNs(start_ns));
        f.set("pid", kTracePid);
        f.set("tid", lane);
        events.push_back(std::move(f));
    }

    ev.set("args", std::move(args));
    events.push_back(std::move(ev));

    if (const json::Value *children = span.find("children")) {
        if (children->isArray()) {
            for (const json::Value &c : children->items())
                walkSpan(c, lane, true, events, next_flow_id, lanes);
        }
    }
}

double
eventTs(const json::Value &ev)
{
    const json::Value *ts = ev.find("ts");
    return ts && ts->isNumber() ? ts->asDouble() : 0.0;
}

double
eventDur(const json::Value &ev)
{
    const json::Value *dur = ev.find("dur");
    return dur && dur->isNumber() ? dur->asDouble() : 0.0;
}

json::Value
metadataEvent(const char *name, int tid, const char *arg_key,
              const std::string &arg_value)
{
    json::Value ev = json::Value::object();
    ev.set("name", name);
    ev.set("ph", "M");
    ev.set("pid", kTracePid);
    ev.set("tid", tid);
    json::Value args = json::Value::object();
    args.set(arg_key, arg_value);
    ev.set("args", std::move(args));
    return ev;
}

} // namespace

json::Value
buildChromeTrace(
    const json::Value &obs_doc,
    const std::vector<std::pair<int, std::string>> &lane_names,
    const std::vector<CounterSample> &samples,
    const std::vector<std::pair<std::string, std::string>> &meta)
{
    std::vector<json::Value> events;
    std::set<int> lanes;
    uint64_t next_flow_id = 1;

    if (const json::Value *spans = obs_doc.find("spans")) {
        if (spans->isArray()) {
            for (const json::Value &s : spans->items())
                walkSpan(s, 0, false, events, next_flow_id, lanes);
        }
    }

    for (const CounterSample &s : samples) {
        json::Value ev = json::Value::object();
        ev.set("name", s.name);
        ev.set("cat", "obs");
        ev.set("ph", "C");
        ev.set("ts", usFromNs(s.tsNs));
        ev.set("pid", kTracePid);
        ev.set("tid", 0);
        json::Value args = json::Value::object();
        args.set("value", static_cast<int64_t>(s.value));
        ev.set("args", std::move(args));
        events.push_back(std::move(ev));
    }

    // Ascending ts keeps every lane's subsequence monotone (the
    // check_trace.py invariant); longer-duration first on ties so
    // viewers nest enclosing slices correctly.
    std::stable_sort(events.begin(), events.end(),
                     [](const json::Value &a, const json::Value &b) {
                         double ta = eventTs(a);
                         double tb = eventTs(b);
                         if (ta != tb)
                             return ta < tb;
                         return eventDur(a) > eventDur(b);
                     });

    // Metadata up front: process name plus one thread_name per lane
    // (explicit names from setLaneName(); "thread-<lane>" otherwise).
    std::vector<json::Value> head;
    head.push_back(
        metadataEvent("process_name", 0, "name", "owl"));
    std::set<int> named;
    for (const auto &[lane, name] : lane_names) {
        head.push_back(
            metadataEvent("thread_name", lane, "name", name));
        named.insert(lane);
    }
    for (int lane : lanes) {
        if (!named.count(lane)) {
            head.push_back(metadataEvent(
                "thread_name", lane, "name",
                "thread-" + std::to_string(lane)));
        }
    }

    json::Value trace_events = json::Value::array();
    for (auto &ev : head)
        trace_events.push(std::move(ev));
    for (auto &ev : events)
        trace_events.push(std::move(ev));

    json::Value root = json::Value::object();
    root.set("traceEvents", std::move(trace_events));
    root.set("displayTimeUnit", "ms");
    if (!meta.empty()) {
        json::Value other = json::Value::object();
        for (const auto &[k, v] : meta)
            other.set(k, v);
        root.set("otherData", std::move(other));
    }
    return root;
}

bool
writeChromeTraceFile(
    const std::string &path,
    const std::vector<std::pair<std::string, std::string>> &meta)
{
    Registry &reg = Registry::instance();
    json::Value trace =
        buildChromeTrace(reg.toJson(), reg.laneNames(),
                         reg.counterSamples(), meta);
    std::ofstream f(path);
    if (!f)
        return false;
    f << trace.dump(1);
    return static_cast<bool>(f);
}

} // namespace owl::obs
