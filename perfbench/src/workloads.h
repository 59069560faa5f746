// The benchmark's three workloads (see README.md for why each exists).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;     ///< report the per-layer split instead of end-to-end metrics
    bool tiny = false;      ///< smoke-test corpus and timings
    std::string spans_out;  ///< CSV file for the traced run's spans; empty = none
};

struct Report {
    bool correct = true;  ///< every answer and every byte count checked out
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;  ///< end-to-end, or per-layer when traced
    std::size_t latency_windows = 0;      ///< windows the percentiles are taken over
    std::size_t window_samples_min = 0;   ///< queries in the smallest of them
};

/// CV over a flat four-librarian federation on loopback TCP; short
/// queries ranked and their top 20 documents fetched.
Report run_search_tcp(const Options& options);

/// CI over an in-process depth-2 tree with two replicas per leaf; long
/// queries ranked to depth 20.
Report run_ci_tree(const Options& options);

/// CV over a flat in-process federation with the answer cache on:
/// Zipf-skewed readers beside a writer that ingests and compacts.
Report run_live_mix(const Options& options);

}  // namespace perfbench
