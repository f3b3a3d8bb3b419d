/**
 * @file
 * Per-layer metrics of the traced mode: the catalogue of names and
 * units, and the reduction of one traced pass's owl.obs span tree and
 * counters to per-layer values.
 */

#ifndef OWL_PERFBENCH_LAYERS_H
#define OWL_PERFBENCH_LAYERS_H

#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace pb
{

/** One pass's per-layer values, keyed by metric name. */
using LayerValues = std::map<std::string, double>;

/** Aggregates of one traced pass, read from the obs registry. */
struct TraceDigest
{
    std::map<std::string, double> selfMs; ///< per span name
    std::map<std::string, double> durMs;  ///< per span name
    std::map<std::string, std::vector<double>> instances; ///< ms each
    /** Self time inside synthesis roots in spans that name no layer. */
    double unattributedMs = 0;
    /** All self time inside synthesis roots. */
    double synthSelfMs = 0;
};

/**
 * Read the registry's span tree and counters after a traced pass.
 * Synthesis roots are spans named `bench.synth` or `serve.request`.
 */
TraceDigest digestTrace();

/**
 * Fill the program-derived layer values (smt, sat, oyster, core
 * counters and per-instruction times, exec, attribution) of one
 * traced pass. `jobs` is the
 * worker count the synthesis ran with, `synthWallMs` its wall time.
 */
void programLayers(const TraceDigest &d, int jobs, double synthWallMs,
                   LayerValues &out);

/** Start a traced pass: clear counters, histograms and spans. */
void beginTracedPass();

/**
 * Final per-layer metric list: the median of each name over the
 * traced passes, every catalogue name present (0 when the layer does
 * no work on this workload).
 */
std::vector<Metric> layerMetrics(const std::vector<LayerValues> &passes,
                                 const LayerValues &fixed);

/** Names and units of every per-layer metric, in print order. */
const std::vector<std::pair<std::string, std::string>> &layerCatalogue();

} // namespace pb

#endif // OWL_PERFBENCH_LAYERS_H
