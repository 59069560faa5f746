// Statistics over samples, and the per-layer split computed from spans.
#pragma once

#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Nearest-rank percentile of an ascending sample, q in (0, 1].
double percentile(const std::vector<double>& sorted, double q);

double median(std::vector<double> values);

/// Per-query self, service and overhead times from the spans of the
/// traced windows (see README.md for each definition):
/// dir.librarian.{rank,candidate}_ms, store.fetch_ms,
/// dir.receptionist.self_ms, dir.aggregator.self_ms, net.overhead_ms
/// and dir.librarian.busy_frac. `traced_wall_s` is the length of those
/// windows.
std::vector<Metric> layer_metrics(const std::vector<Span>& spans, const std::vector<Node>& nodes,
                                  double traced_wall_s);

}  // namespace perfbench
