// End-to-end benchmark of a TERAPHIM deployment.
//
//   perfbench --workload search-tcp|ci-tree|live-mix --seed N --seconds S
//             --trace 0|1 [--tiny] [--spans-out FILE]
//
// Builds the workload's deployment from the seed, drives it closed loop,
// checks every answer, and prints as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer split. Lines before it
// start with '#' and describe the run (machine fingerprint, traffic).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Report;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) return line.substr(colon + 2);
        }
    }
    return "unknown";
}

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload search-tcp|ci-tree|live-mix "
                 "--seed N --seconds S --trace 0|1 [--tiny] [--spans-out FILE]\n",
                 why);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = value();
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(value().c_str(), nullptr);
        } else if (arg == "--trace") {
            o.trace = value() == "1";
        } else if (arg == "--tiny") {
            o.tiny = true;
        } else if (arg == "--spans-out") {
            o.spans_out = value();
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (o.workload.empty()) usage("--workload is required");
    if (!(o.seconds > 0.0)) usage("--seconds must be positive");
    return o;
}

}  // namespace

int main(int argc, char** argv) {
    const Options options = parse(argc, argv);
    Report report;
    try {
        if (options.workload == "search-tcp") {
            report = perfbench::run_search_tcp(options);
        } else if (options.workload == "ci-tree") {
            report = perfbench::run_ci_tree(options);
        } else if (options.workload == "live-mix") {
            report = perfbench::run_live_mix(options);
        } else {
            usage(("unknown workload " + options.workload).c_str());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
        return 1;
    }

    // Latency percentiles are per window, then the median over windows:
    // the sample counts behind them are the smallest window's.
    const std::size_t n = report.window_samples_min;
    const auto beyond = [n](double q) {
        return n - static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    };
    std::printf(
        "# fingerprint {\"cpu\": \"%s\", \"nproc\": %u, \"compiler\": \"g++ %s\", "
        "\"build_type\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
        "\"trace\": %d, \"latency_windows\": %zu, \"window_samples_min\": %zu, "
        "\"beyond_p50\": %zu, \"beyond_p95\": %zu}\n",
        cpu_model().c_str(), std::thread::hardware_concurrency(), __VERSION__,
        PERFBENCH_BUILD_TYPE, options.workload.c_str(),
        static_cast<unsigned long long>(options.seed), options.seconds, options.trace ? 1 : 0,
        report.latency_windows, n, beyond(0.50), beyond(0.95));

    bool correct = report.correct && report.failed == 0;
    std::string metrics;
    for (const auto& m : report.metrics) {
        double value = m.value;
        if (!std::isfinite(value)) {
            correct = false;
            value = 0.0;
        }
        char buf[256];
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
        metrics += buf;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed), metrics.c_str());
    return 0;
}
