/**
 * @file
 * Chrome Trace Event export for the owl::obs span forest.
 *
 * Serializes the registry's completed spans (including cross-thread
 * adoptions made via TaskSpanContext), lane names, and counter-track
 * samples as the Trace Event JSON object format understood by
 * Perfetto and chrome://tracing:
 *
 *   - one "X" (complete) event per span, on the lane (tid) of the
 *     thread that recorded it, with span attrs as event args;
 *   - "s"/"f" flow events linking each *adopted* span (a child whose
 *     lane differs from its parent's — i.e. work a span dispatched to
 *     a worker thread) back to its dispatching span; the adopted
 *     span's X event carries the flow id in args.flow;
 *   - "C" (counter) events for every sample recorded through
 *     obs::sampleCounter() while sampling was on;
 *   - "M" metadata events naming the process and each lane (lanes
 *     registered via obs::setLaneName(); unnamed lanes fall back to
 *     "thread-<lane>").
 *
 * Timestamps are microseconds (fractional, nanosecond precision) from
 * the obs epoch, so events sort identically to the span forest.
 * `owl synth --trace-out trace.json` is the CLI entry point;
 * tools/check_trace.py validates the output without a browser.
 */

#ifndef OWL_OBS_TRACE_H
#define OWL_OBS_TRACE_H

#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/obs.h"

namespace owl::obs
{

/**
 * Build a Chrome Trace Event document from an owl.obs.v2 stats
 * document (Registry::toJson() output), lane names, and counter
 * samples. Pure function of its inputs, so tests can validate the
 * trace structure without touching the live registry. `meta` entries
 * are attached under "otherData".
 */
json::Value buildChromeTrace(
    const json::Value &obs_doc,
    const std::vector<std::pair<int, std::string>> &lane_names,
    const std::vector<CounterSample> &samples,
    const std::vector<std::pair<std::string, std::string>> &meta = {});

/**
 * Snapshot the live registry and write its Chrome trace to `path`.
 * Returns false on I/O failure.
 */
bool writeChromeTraceFile(
    const std::string &path,
    const std::vector<std::pair<std::string, std::string>> &meta = {});

} // namespace owl::obs

#endif // OWL_OBS_TRACE_H
