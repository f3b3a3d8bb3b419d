#include "serve/request.h"

#include <climits>

namespace owl::serve
{

namespace json = obs::json;

bool
parseJobRequest(const json::Value &v, JobRequest &out,
                std::string &err)
{
    if (!v.isObject()) {
        err = "job must be a JSON object";
        return false;
    }
    for (const auto &[key, val] : v.members()) {
        if (key == "id") {
            if (!val.isString()) {
                err = "\"id\" must be a string";
                return false;
            }
            out.id = val.asString();
        } else if (key == "design") {
            if (!val.isString()) {
                err = "\"design\" must be a string";
                return false;
            }
            out.design = val.asString();
        } else if (key == "budget_ms") {
            if (!val.isInt() || val.asInt() < 0) {
                err = "\"budget_ms\" must be a non-negative integer";
                return false;
            }
            out.budgetMs = val.asInt();
        } else if (key == "max_iterations") {
            if (!val.isInt() || val.asInt() <= 0 ||
                val.asInt() > INT_MAX) {
                err = "\"max_iterations\" must be a positive integer";
                return false;
            }
            out.maxIterations = static_cast<int>(val.asInt());
        } else if (key == "verify") {
            if (!val.isBool()) {
                err = "\"verify\" must be a boolean";
                return false;
            }
            out.verify = val.asBool();
        } else if (key == "check_proofs") {
            if (!val.isBool()) {
                err = "\"check_proofs\" must be a boolean";
                return false;
            }
            out.solver.checkProofs = val.asBool();
        } else if (key == "preprocess") {
            if (!val.isBool()) {
                err = "\"preprocess\" must be a boolean";
                return false;
            }
            out.solver.preprocess = val.asBool();
        } else if (key == "eager_ackermann") {
            if (!val.isBool()) {
                err = "\"eager_ackermann\" must be a boolean";
                return false;
            }
            out.solver.eagerAckermann = val.asBool();
        } else if (key == "stats_json") {
            if (!val.isString()) {
                err = "\"stats_json\" must be a string";
                return false;
            }
            out.statsJson = val.asString();
        } else {
            err = "unknown job field \"" + key + "\"";
            return false;
        }
    }
    if (out.design.empty()) {
        err = "job missing required field \"design\"";
        return false;
    }
    return true;
}

bool
parseJobsFile(const std::string &text, std::vector<JobRequest> &out,
              std::string &err)
{
    json::Value doc;
    if (!json::Value::parse(text, doc, &err))
        return false;
    const json::Value *jobs = &doc;
    if (doc.isObject()) {
        jobs = doc.find("jobs");
        if (!jobs) {
            err = "jobs file object has no \"jobs\" member";
            return false;
        }
    }
    if (!jobs->isArray()) {
        err = "jobs must be an array of request objects";
        return false;
    }
    for (size_t i = 0; i < jobs->items().size(); i++) {
        JobRequest req;
        std::string jerr;
        if (!parseJobRequest(jobs->items()[i], req, jerr)) {
            err = "job " + std::to_string(i) + ": " + jerr;
            return false;
        }
        out.push_back(std::move(req));
    }
    return true;
}

json::Value
resultToJson(const JobResult &r)
{
    json::Value v = json::Value::object();
    if (!r.id.empty())
        v.set("id", r.id);
    v.set("design", r.design);
    v.set("status", r.status);
    if (!r.error.empty())
        v.set("error", r.error);
    if (!r.failedInstr.empty())
        v.set("failed_instr", r.failedInstr);
    v.set("seconds", r.seconds);
    v.set("iterations", static_cast<int64_t>(r.iterations));
    v.set("cache_hits", r.cacheHits);
    v.set("cache_misses", r.cacheMisses);
    v.set("sessions_reused", r.sessionsReused);
    v.set("sessions_created", r.sessionsCreated);
    v.set("spans_abandoned", r.spansAbandoned);
    json::Value holes = json::Value::object();
    for (const auto &[instr, hv] : r.holes) {
        json::Value one = json::Value::object();
        for (const auto &[name, value] : hv)
            one.set(name, value.toString());
        holes.set(instr, std::move(one));
    }
    v.set("holes", std::move(holes));
    return v;
}

} // namespace owl::serve
