// Closed-loop load generator.
//
// Each client thread sends its next query only after the previous one
// returned, for a warm-up phase that no metric sees and then for a run
// of equal timing windows. A traced run alternates untraced and traced
// windows, so that the tracing overhead is measured on the same
// deployment under the same load.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "trace.h"
#include "util/rng.h"

namespace perfbench {

/// What one user query did, as its client saw it.
struct Outcome {
    bool ok = true;  ///< the answer matched its reference
    bool from_cache = false;
    bool stale = false;
    std::uint64_t retries = 0;
    std::uint64_t postings = 0;          ///< decoded by librarians
    std::uint64_t central_postings = 0;  ///< decoded by the receptionist (CI)
    bool fetched = false;                ///< documents were fetched (step 4)
    std::int64_t query_index = -1;       ///< into the distinct queries; -1 = one-off
    std::size_t terms = 0;               ///< query terms after the text pipeline
};

/// Times the one call into the system that a query makes: the latency
/// sample and the Query span cover that call and nothing the client does
/// around it (drawing the query, checking the answer).
class QueryClock {
public:
    explicit QueryClock(std::uint16_t node) : node_(node) {}

    template <typename F>
    auto time(F&& call) {
        SpanScope span(SpanKind::Query, 0, node_);
        ThreadContext& ctx = context();
        ctx.query = span.id();
        const auto start = std::chrono::steady_clock::now();
        struct Clear {
            ThreadContext& ctx;
            ~Clear() { ctx.query = 0; }
        } clear{ctx};
        auto result = call();
        latency_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
        return result;
    }

    double latency_ms = 0.0;

private:
    std::uint16_t node_;
};

/// Issues one query for `client`, drawing from `rng` and making its call
/// through `clock`; throws when the system does (the query then counts
/// as failed).
using QueryFn =
    std::function<Outcome(std::size_t client, teraphim::util::Rng& rng, QueryClock& clock)>;

/// Shared progress of a run, readable by work beside the clients.
struct LoopState {
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> completed{0};  ///< queries finished so far
    std::atomic<int> window{-1};              ///< -1 while warming up
    int windows = 0;

    /// True inside the timing windows.
    bool timing() const {
        const int w = window.load(std::memory_order_relaxed);
        return w >= 0 && w < windows;
    }
};

/// Work that runs beside the clients (a writer) until state.stop is set.
using SideFn = std::function<void(const LoopState& state)>;

struct LoopConfig {
    std::size_t clients = 4;
    double warmup_s = 2.0;
    double seconds = 10.0;  ///< total length of the timing windows
    std::size_t windows = 5;
    bool trace = false;  ///< odd windows record spans
    std::uint64_t seed = 1;
};

struct LoopResult {
    std::uint64_t attempted = 0;  ///< every query issued, warm-up included
    std::uint64_t failed = 0;     ///< threw, or answered wrongly

    /// Throughput per window, queries per second.
    std::vector<double> untraced_qps;
    std::vector<double> traced_qps;
    /// CPU time of the whole process (user + system, every thread: the
    /// clients, receptionists, servers and any writer) per query
    /// completed, ms: per window, and as total CPU over total queries of
    /// the untraced and of the traced windows. Unlike throughput, it
    /// barely moves when other tenants of a shared host take CPUs away.
    std::vector<double> window_cpu_ms;
    double cpu_ms_per_query = 0.0;
    double traced_cpu_ms_per_query = 0.0;
    double traced_wall_s = 0.0;
    /// calibration_ms() reps taken before the warm-up and after the
    /// windows.
    std::vector<double> calibration_ms;

    /// Latencies of the queries completed in untraced windows, sorted:
    /// all of them, and per window.
    std::vector<double> latencies_ms;
    std::vector<std::vector<double>> window_latencies_ms;

    /// Totals over the queries completed in traced windows (in every
    /// window when the run is untraced).
    std::uint64_t queries = 0;
    std::uint64_t from_cache = 0;
    std::uint64_t stale = 0;
    std::uint64_t retries = 0;
    std::uint64_t postings = 0;
    std::uint64_t central_postings = 0;

    /// The traffic served in all timing windows.
    std::uint64_t served = 0;
    std::uint64_t served_distinct = 0;  ///< distinct queries, one-offs included
    std::uint64_t served_terms = 0;
    std::uint64_t served_fetched = 0;
    std::uint64_t served_from_cache = 0;
    std::uint64_t served_stale = 0;

    double peak_rss_mb = 0.0;  ///< highest resident set sampled in the windows
};

LoopResult closed_loop(const LoopConfig& config, const QueryFn& query, const SideFn& side = {});

/// CPU time this process has used so far, all threads, seconds.
double process_cpu_s();

/// Resident set of this process, MB (VmRSS).
double resident_mb();

}  // namespace perfbench
