#include "loop.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_set>

#include "calibrate.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Latency samples kept per client. The buffer is written in full
/// before the run, so its pages are resident from the start and the
/// resident-set samples do not grow with throughput.
constexpr std::size_t kLatencyCapacity = std::size_t{1} << 20;

constexpr int kCalibrationReps = 5;  ///< at each end of the load

struct Tally {
    std::vector<std::uint64_t> per_window;  ///< completions
    std::vector<float> latencies;
    std::vector<std::uint8_t> latency_window;  ///< window of each sample
    std::size_t latency_count = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    LoopResult counted;  ///< only the counter and traffic fields are used
    std::unordered_set<std::int64_t> distinct;
};

/// Stops and joins the load threads on every path out of closed_loop.
struct Joiner {
    LoopState& state;
    std::vector<std::thread>& threads;
    ~Joiner() {
        state.stop.store(true);
        for (auto& t : threads) {
            if (t.joinable()) t.join();
        }
    }
};

}  // namespace

double process_cpu_s() {
    timespec t{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
    return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

double resident_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmRSS:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

LoopResult closed_loop(const LoopConfig& config, const QueryFn& query, const SideFn& side) {
    Recorder& rec = Recorder::instance();
    const std::uint16_t client_node = rec.add_node("client", NodeRole::Client);
    const int windows = static_cast<int>(config.windows);
    const auto traced = [&](int w) { return config.trace && w % 2 == 1; };

    LoopState state;
    state.windows = windows;
    std::vector<Tally> tallies(config.clients);
    for (Tally& t : tallies) {
        t.per_window.assign(config.windows, 0);
        t.latencies.assign(kLatencyCapacity, 0.0f);
        t.latency_window.assign(kLatencyCapacity, 0);
    }

    const auto client = [&](std::size_t c) {
        Tally& tally = tallies[c];
        teraphim::util::Rng rng(config.seed * 0x9E3779B97F4A7C15ULL + c + 1);
        QueryClock clock(client_node);
        std::int64_t one_offs = 0;
        while (!state.stop.load(std::memory_order_relaxed)) {
            Outcome outcome;
            bool threw = false;
            try {
                outcome = query(c, rng, clock);
            } catch (const std::exception&) {
                threw = true;
            }
            ++tally.attempted;
            if (threw || !outcome.ok) ++tally.failed;
            state.completed.fetch_add(1, std::memory_order_relaxed);
            const int w = state.window.load(std::memory_order_relaxed);
            if (w < 0 || w >= windows || threw) continue;
            ++tally.per_window[static_cast<std::size_t>(w)];
            if (!traced(w) && tally.latency_count < kLatencyCapacity) {
                tally.latency_window[tally.latency_count] = static_cast<std::uint8_t>(w);
                tally.latencies[tally.latency_count++] = static_cast<float>(clock.latency_ms);
            }
            LoopResult& n = tally.counted;
            ++n.served;
            n.served_terms += outcome.terms;
            n.served_fetched += outcome.fetched ? 1 : 0;
            n.served_from_cache += outcome.from_cache ? 1 : 0;
            n.served_stale += outcome.stale ? 1 : 0;
            if (outcome.query_index >= 0) {
                tally.distinct.insert(outcome.query_index);
            } else {
                ++one_offs;
            }
            if (traced(w) || !config.trace) {
                ++n.queries;
                n.from_cache += outcome.from_cache ? 1 : 0;
                n.stale += outcome.stale ? 1 : 0;
                n.retries += outcome.retries;
                n.postings += outcome.postings;
                n.central_postings += outcome.central_postings;
            }
        }
        tally.counted.served_distinct = static_cast<std::uint64_t>(one_offs);
    };

    LoopResult result;
    result.calibration_ms = calibration_ms(kCalibrationReps);
    std::vector<double> window_s(config.windows, 0.0);
    std::vector<double> window_cpu_s(config.windows, 0.0);
    std::printf("# resident before load: %.1f MB\n", resident_mb());
    {
        std::vector<std::thread> threads;
        Joiner joiner{state, threads};
        threads.reserve(config.clients + 1);
        for (std::size_t c = 0; c < config.clients; ++c) threads.emplace_back(client, c);
        if (side) threads.emplace_back([&] { side(state); });

        std::this_thread::sleep_for(std::chrono::duration<double>(config.warmup_s));
        const auto window_len = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(config.seconds / static_cast<double>(windows)));
        for (int w = 0; w < windows; ++w) {
            rec.set_on(traced(w));
            const auto begin = Clock::now();
            const double cpu_begin = process_cpu_s();
            state.window.store(w);
            const auto end = begin + window_len;
            for (auto now = begin; now < end; now = Clock::now()) {
                result.peak_rss_mb = std::max(result.peak_rss_mb, resident_mb());
                std::this_thread::sleep_until(std::min(end, now + std::chrono::milliseconds(100)));
            }
            window_s[static_cast<std::size_t>(w)] =
                std::chrono::duration<double>(Clock::now() - begin).count();
            window_cpu_s[static_cast<std::size_t>(w)] = process_cpu_s() - cpu_begin;
        }
        state.window.store(windows);
        rec.set_on(false);
    }
    for (double ms : calibration_ms(kCalibrationReps)) result.calibration_ms.push_back(ms);

    double untraced_cpu_s = 0.0;
    double traced_cpu_s = 0.0;
    std::uint64_t untraced_done = 0;
    std::uint64_t traced_done = 0;
    for (int w = 0; w < windows; ++w) {
        std::uint64_t done = 0;
        for (const Tally& t : tallies) done += t.per_window[static_cast<std::size_t>(w)];
        const double seconds = window_s[static_cast<std::size_t>(w)];
        const double cpu_s = window_cpu_s[static_cast<std::size_t>(w)];
        (traced(w) ? result.traced_qps : result.untraced_qps)
            .push_back(static_cast<double>(done) / seconds);
        result.window_cpu_ms.push_back(1e3 * cpu_s /
                                       static_cast<double>(std::max<std::uint64_t>(done, 1)));
        if (traced(w)) {
            result.traced_wall_s += seconds;
            traced_cpu_s += cpu_s;
            traced_done += done;
        } else {
            untraced_cpu_s += cpu_s;
            untraced_done += done;
        }
    }
    const auto per_query_ms = [](double cpu_s, std::uint64_t done) {
        return done == 0 ? 0.0 : 1e3 * cpu_s / static_cast<double>(done);
    };
    result.cpu_ms_per_query = per_query_ms(untraced_cpu_s, untraced_done);
    result.traced_cpu_ms_per_query = per_query_ms(traced_cpu_s, traced_done);
    result.window_latencies_ms.resize(config.windows);
    std::unordered_set<std::int64_t> distinct;
    for (const Tally& t : tallies) {
        result.attempted += t.attempted;
        result.failed += t.failed;
        for (std::size_t i = 0; i < t.latency_count; ++i) {
            const double ms = static_cast<double>(t.latencies[i]);
            result.latencies_ms.push_back(ms);
            result.window_latencies_ms[t.latency_window[i]].push_back(ms);
        }
        const LoopResult& n = t.counted;
        result.queries += n.queries;
        result.from_cache += n.from_cache;
        result.stale += n.stale;
        result.retries += n.retries;
        result.postings += n.postings;
        result.central_postings += n.central_postings;
        result.served += n.served;
        result.served_distinct += n.served_distinct;
        result.served_terms += n.served_terms;
        result.served_fetched += n.served_fetched;
        result.served_from_cache += n.served_from_cache;
        result.served_stale += n.served_stale;
        distinct.insert(t.distinct.begin(), t.distinct.end());
    }
    result.served_distinct += distinct.size();
    std::sort(result.latencies_ms.begin(), result.latencies_ms.end());
    std::erase_if(result.window_latencies_ms, [](const auto& w) { return w.empty(); });
    for (auto& w : result.window_latencies_ms) std::sort(w.begin(), w.end());
    return result;
}

}  // namespace perfbench
