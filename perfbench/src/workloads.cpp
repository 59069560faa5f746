#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "corpus/generator.h"
#include "corpus/zipf.h"
#include "dir/deployment.h"
#include "index/builder.h"
#include "calibrate.h"
#include "loop.h"
#include "rank/query_processor.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {

namespace {

using namespace teraphim;

constexpr std::size_t kDepth = 20;  ///< k: the paper's answers per query
constexpr int kSetupReps = 3;       ///< set-ups per run; setup_s is their median
constexpr int kCalibrationReps = 5;  ///< before the set-ups

// ---- inputs -----------------------------------------------------------------

/// The paper-scale stand-in for TREC disk 2: four subcollections in the
/// AP/WSJ/FR/ZIFF proportions, 60,200 documents at scale 1, with more
/// topics than the paper tables use so that every workload has enough
/// distinct queries. Everything is drawn from the run's seed.
corpus::CorpusConfig corpus_config(const Options& options, double scale) {
    corpus::CorpusConfig config;
    if (options.tiny) {
        config.vocab_size = 3000;
        config.subcollections = {
            {"AP", 120, 70.0, 0.4},
            {"WSJ", 120, 70.0, 0.4},
            {"FR", 80, 90.0, 0.5},
            {"ZIFF", 80, 60.0, 0.5},
        };
        config.num_long_topics = 6;
        config.num_short_topics = 8;
        config.topic_term_floor = 150;
    } else {
        const auto docs = [scale](double n) { return static_cast<std::uint32_t>(n * scale); };
        config.vocab_size = 24000;
        config.subcollections = {
            {"AP", docs(20800), 200.0, 0.45},
            {"WSJ", docs(19400), 190.0, 0.45},
            {"FR", docs(5200), 280.0, 0.6},
            {"ZIFF", docs(14800), 150.0, 0.5},
        };
        config.num_long_topics = 64;
        config.num_short_topics = 128;
    }
    config.seed = options.seed;
    return config;
}

/// Default receptionist options plus the paper's k = 20, G = 10 and
/// k' = 100: no pruning, no skips, no bundled fetch, as users get them.
dir::ReceptionistOptions paper_options(dir::Mode mode) {
    dir::ReceptionistOptions o;
    o.mode = mode;
    o.answers = kDepth;
    o.group_size = 10;
    o.k_prime = 100;
    return o;
}

/// Rank to depth k and fetch the documents: the paper's steps 1-4.
dir::QueryRequest search_request(std::string_view text) {
    dir::QueryRequest request;
    request.text = text;
    request.depth = kDepth;
    request.fetch = true;
    return request;
}

std::vector<std::string> query_texts(const eval::QuerySet& set) {
    std::vector<std::string> out;
    for (const auto& q : set.queries) out.push_back(q.text);
    return out;
}

std::vector<std::size_t> term_counts(const std::vector<std::string>& queries) {
    const text::Pipeline pipeline;
    std::vector<std::size_t> out;
    for (const auto& q : queries) out.push_back(pipeline.terms(q).size());
    return out;
}

// ---- assembly ---------------------------------------------------------------

/// Indexes every subcollection on its own thread, as separate machines
/// would.
std::vector<std::unique_ptr<dir::Librarian>> build_librarians(
    const std::vector<corpus::Subcollection>& subs) {
    std::vector<std::unique_ptr<dir::Librarian>> out(subs.size());
    {
        std::vector<std::jthread> threads;
        for (std::size_t i = 0; i < subs.size(); ++i) {
            threads.emplace_back([&, i] { out[i] = dir::build_librarian(subs[i]); });
        }
    }
    return out;
}

Handler librarian_handler(dir::Librarian& librarian) {
    dir::Librarian* raw = &librarian;
    return timed_handler([raw](const net::Message& m) { return raw->handle(m); },
                         Recorder::instance().add_node(raw->name(), NodeRole::Librarian));
}

std::unique_ptr<dir::Channel> timed_channel(std::unique_ptr<dir::Channel> inner,
                                            const std::string& from, WireCounter* wire) {
    const std::uint16_t node =
        Recorder::instance().add_node(from + "->" + inner->name(), NodeRole::Channel);
    return std::make_unique<TimedChannel>(std::move(inner), node, wire);
}

/// Returns freed heap to the system, so that resident-set samples do
/// not carry what earlier set-ups and references left behind.
void trim_heap() { malloc_trim(0); }

class CheckPass;

struct RunRecord {
    Report report;
    LoopResult loop;
    std::vector<double> setup_cpu_s;   ///< process CPU time of each set-up
    std::vector<double> setup_wall_s;  ///< and its wall-clock time
    std::vector<double> calibration_ms;  ///< calibration_ms() reps before the set-ups
    const CheckPass* check = nullptr;
    std::vector<double> ingest_ms;
    std::vector<double> compact_ms;
    std::vector<double> reprepare_ms;
};

/// Runs `make` kSetupReps times, keeping the last deployment, and
/// records the time each took; the host is calibrated first.
template <typename T>
std::unique_ptr<T> set_up(const std::function<std::unique_ptr<T>()>& make, RunRecord& run) {
    run.calibration_ms = calibration_ms(kCalibrationReps);
    std::unique_ptr<T> built;
    for (int i = 0; i < kSetupReps; ++i) {
        built.reset();
        Recorder::instance().reset();
        trim_heap();
        util::Timer timer;
        const double cpu_begin = process_cpu_s();
        built = make();
        run.setup_cpu_s.push_back(process_cpu_s() - cpu_begin);
        run.setup_wall_s.push_back(timer.elapsed_seconds());
    }
    return built;
}

/// Runs fn(i) for i in [0, n) on up to four threads.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
    std::atomic<std::size_t> next{0};
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (std::size_t i = next++; i < n; i = next++) fn(i);
        });
    }
}

// ---- checks -----------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, std::span<const std::uint8_t> bytes) {
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001B3ULL;
    }
    return h;
}

std::uint64_t digest(const std::vector<dir::FetchedDocument>& docs) {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const auto& d : docs) {
        h = fnv1a(h, {reinterpret_cast<const std::uint8_t*>(d.external_id.data()),
                      d.external_id.size()});
        h = fnv1a(h, d.payload);
    }
    return h;
}

/// What a workload's answer to one distinct query must be.
struct Expected {
    std::vector<dir::GlobalResult> ranking;
    std::uint64_t documents = 0;  ///< digest of the fetched documents
};

/// One pass of every distinct query, outside timing, that checks the
/// answers and accounts their bytes twice: as QueryTrace reports them,
/// and as the root channel probes saw them (these record only in traced
/// runs, so the two are compared there).
class CheckPass {
public:
    CheckPass(bool trace, WireCounter& wire) : wire_(wire) {
        wire_.reset();
        Recorder::instance().set_on(trace);
    }

    void add(const dir::QueryTrace& trace) {
        std::lock_guard<std::mutex> lock(mu_);
        ++queries;
        bytes += trace.total_message_bytes();
        messages += trace.total_messages();
    }

    /// Stops recording; the pass's spans are not part of any window.
    void end() {
        Recorder::instance().set_on(false);
        Recorder::instance().clear_spans();
        probe_frames = wire_.frames.load();
        probe_bytes = wire_.bytes.load();
    }

    std::uint64_t queries = 0;
    std::uint64_t bytes = 0;     ///< QueryTrace::total_message_bytes
    std::uint64_t messages = 0;  ///< QueryTrace::total_messages (round trips)
    std::uint64_t probe_frames = 0;
    std::uint64_t probe_bytes = 0;

private:
    std::mutex mu_;
    WireCounter& wire_;
};

Outcome outcome_of(const dir::QueryAnswer& answer) {
    Outcome o;
    o.ok = answer.degraded().ok();
    o.from_cache = answer.trace.served_from_cache;
    o.stale = answer.trace.stale_generation;
    o.retries = answer.trace.degraded.retries;
    for (const auto& w : answer.trace.index_phase) o.postings += w.postings_decoded;
    o.central_postings = answer.trace.receptionist.central_postings;
    return o;
}

// ---- reporting --------------------------------------------------------------

void print_windows(const char* what, const std::vector<double>& values) {
    if (values.empty()) return;
    std::printf("# %s:", what);
    for (double v : values) std::printf(" %.5g", v);
    std::printf("\n");
}

void print_traffic(const Options& options, const LoopResult& loop) {
    const double served = static_cast<double>(std::max<std::uint64_t>(loop.served, 1));
    std::printf(
        "# traffic %s: served %llu queries, %llu distinct, %.1f terms/query, fetch share %.3f, "
        "cache-hit share %.4f, stale share %.4f\n",
        options.workload.c_str(), static_cast<unsigned long long>(loop.served),
        static_cast<unsigned long long>(loop.served_distinct),
        static_cast<double>(loop.served_terms) / served,
        static_cast<double>(loop.served_fetched) / served,
        static_cast<double>(loop.served_from_cache) / served,
        static_cast<double>(loop.served_stale) / served);
}

/// The median over the untraced windows of each window's q-percentile
/// latency: a short disturbance of the host moves one window, not the
/// figure.
double window_median(const LoopResult& loop, double q) {
    std::vector<double> per_window;
    for (const auto& w : loop.window_latencies_ms) per_window.push_back(percentile(w, q));
    return median(per_window);
}

/// Fills the report's metrics from the run: the end-to-end set when
/// untraced, the per-layer split when traced.
Report finish(const Options& options, RunRecord& run) {
    Report& r = run.report;
    const LoopResult& loop = run.loop;
    r.attempted += loop.attempted;
    r.failed += loop.failed;
    r.latency_windows = loop.window_latencies_ms.size();
    r.window_samples_min = loop.latencies_ms.size();
    for (const auto& w : loop.window_latencies_ms) {
        r.window_samples_min = std::min(r.window_samples_min, w.size());
    }
    print_traffic(options, loop);
    const auto& lat = loop.latencies_ms;
    std::printf("# latency ms over %zu queries: p50 %.4f p90 %.4f p95 %.4f p99 %.4f p99.9 %.4f "
                "max %.4f\n",
                lat.size(), percentile(lat, 0.5), percentile(lat, 0.9), percentile(lat, 0.95),
                percentile(lat, 0.99), percentile(lat, 0.999), lat.empty() ? 0.0 : lat.back());
    print_windows("untraced windows, queries/s", loop.untraced_qps);
    print_windows("traced windows, queries/s", loop.traced_qps);
    print_windows("all windows in order, process cpu ms/query", loop.window_cpu_ms);
    const double qps = median(loop.untraced_qps);
    const double p50 = window_median(loop, 0.50);
    const double p95 = window_median(loop, 0.95);
    std::printf("# client view (untraced windows): qps %.1f, latency p50 %.4f ms, p95 %.4f ms\n",
                qps, p50, p95);

    // CPU figures at reference host speed: scaled by how much slower or
    // faster than the reference this host ran the calibration kernel
    // over the whole run (the median of its reps before the set-ups,
    // before the warm-up and after the windows).
    std::vector<double> calibration = run.calibration_ms;
    calibration.insert(calibration.end(), loop.calibration_ms.begin(), loop.calibration_ms.end());
    const double host_ms = median(calibration);
    const double to_reference = kReferenceCalibrationMs / host_ms;
    print_windows("calibration reps, ms", calibration);
    print_windows("set-ups, process cpu s", run.setup_cpu_s);
    print_windows("set-ups, wall s", run.setup_wall_s);
    std::printf("# host: calibration %.4f ms (reference %.1f); process cpu %.4f ms/query, "
                "%.4f s/set-up\n",
                host_ms, kReferenceCalibrationMs, loop.cpu_ms_per_query, median(run.setup_cpu_s));
    const double checked = static_cast<double>(std::max<std::uint64_t>(run.check->queries, 1));
    if (!options.trace) {
        r.metrics = {
            {"ref_cpu_ms_per_query", loop.cpu_ms_per_query * to_reference, "ms"},
            {"success_frac",
             1.0 - static_cast<double>(r.failed) /
                       static_cast<double>(std::max<std::uint64_t>(r.attempted, 1)),
             "frac"},
            {"wire_bytes_per_query", static_cast<double>(run.check->bytes) / checked, "B"},
            {"setup_s", median(run.setup_cpu_s) * to_reference, "s"},
            {"peak_rss_mb", loop.peak_rss_mb, "MB"},
        };
        return r;
    }

    // The probes must have seen exactly the frames QueryTrace accounts.
    const CheckPass& check = *run.check;
    if (check.probe_bytes != check.bytes || check.probe_frames != 2 * check.messages) {
        std::printf("# MISMATCH: probes saw %llu bytes / %llu frames, traces %llu / %llu\n",
                    static_cast<unsigned long long>(check.probe_bytes),
                    static_cast<unsigned long long>(check.probe_frames),
                    static_cast<unsigned long long>(check.bytes),
                    static_cast<unsigned long long>(2 * check.messages));
        r.correct = false;
    }
    const Recorder& rec = Recorder::instance();
    if (!options.spans_out.empty() && !rec.write_csv(options.spans_out)) {
        std::printf("# cannot write spans to %s\n", options.spans_out.c_str());
        r.correct = false;
    }
    const std::vector<Span> spans = rec.spans();
    r.metrics = layer_metrics(spans, rec.nodes(), loop.traced_wall_s);
    const double queries = static_cast<double>(std::max<std::uint64_t>(loop.queries, 1));
    r.metrics.insert(
        r.metrics.end(),
        {
            {"host.calibration_ms", host_ms, "ms"},
            {"process.cpu_ms_per_query", loop.cpu_ms_per_query, "ms"},
            {"client.qps", qps, "1/s"},
            {"client.latency_p50_ms", p50, "ms"},
            {"client.latency_p95_ms", p95, "ms"},
            {"net.frames_per_query", static_cast<double>(check.probe_frames) / checked, "count"},
            {"net.bytes_per_query", static_cast<double>(check.probe_bytes) / checked, "B"},
            {"index.postings_per_query", static_cast<double>(loop.postings) / queries, "count"},
            {"index.central_postings_per_query",
             static_cast<double>(loop.central_postings) / queries, "count"},
            {"dir.route.retries_per_query", static_cast<double>(loop.retries) / queries,
             "count"},
            {"cache.hit_frac", static_cast<double>(loop.from_cache) / queries, "frac"},
            {"cache.stale_frac", static_cast<double>(loop.stale) / queries, "frac"},
            {"dir.ingest_ms", median(run.ingest_ms), "ms"},
            {"dir.compact_ms", median(run.compact_ms), "ms"},
            {"dir.reprepare_ms", median(run.reprepare_ms), "ms"},
            {"trace.overhead_frac",
             loop.cpu_ms_per_query > 0.0
                 ? loop.traced_cpu_ms_per_query / loop.cpu_ms_per_query - 1.0
                 : 0.0,
             "frac"},
        });
    std::printf("# traced %zu spans over %.2f s of traced windows, %llu queries\n",
                spans.size(), loop.traced_wall_s, static_cast<unsigned long long>(loop.queries));
    return r;
}

LoopConfig loop_config(const Options& options, std::size_t clients) {
    LoopConfig config;
    config.clients = clients;
    config.warmup_s = options.tiny ? 0.2 : 2.0;
    config.seconds = options.seconds;
    config.windows = options.trace ? 6 : 5;
    config.trace = options.trace;
    config.seed = options.seed;
    return config;
}

// ---- search-tcp ---------------------------------------------------------------

struct TcpDeployment {
    corpus::SyntheticCorpus corpus;
    std::vector<std::unique_ptr<dir::Librarian>> librarians;
    WireCounter wire;
    std::vector<std::unique_ptr<net::MessageServer>> servers;
    std::unique_ptr<dir::Receptionist> receptionist;

    ~TcpDeployment() {
        receptionist.reset();  // closes the client connections first
        for (auto& server : servers) server->stop();
    }
};

std::unique_ptr<TcpDeployment> assemble_search_tcp(const corpus::CorpusConfig& config) {
    auto d = std::make_unique<TcpDeployment>();
    d->corpus = corpus::generate_corpus(config);
    d->librarians = build_librarians(d->corpus.subcollections);
    const dir::ReceptionistOptions options = paper_options(dir::Mode::CentralVocabulary);
    const dir::TcpChannel::Timeouts timeouts{options.fault.connect_timeout_ms,
                                             options.fault.io_timeout_ms};
    std::vector<std::unique_ptr<dir::Channel>> channels;
    for (auto& librarian : d->librarians) {
        d->servers.push_back(std::make_unique<net::MessageServer>(
            0, librarian_handler(*librarian), net::ServerLimits{}, &librarian->metrics()));
        channels.push_back(timed_channel(
            std::make_unique<dir::TcpChannel>(librarian->name(), "127.0.0.1",
                                              d->servers.back()->port(), timeouts),
            "root", &d->wire));
    }
    d->receptionist = std::make_unique<dir::Receptionist>(std::move(channels), options);
    d->receptionist->prepare();
    return d;
}

/// The mono-server ranking: one index over the whole collection, in
/// subcollection order, ranked directly by the query processor.
class MonoReference {
public:
    explicit MonoReference(const corpus::SyntheticCorpus& corpus) {
        index::IndexBuilder builder;
        for (const auto& sub : corpus.subcollections) {
            offsets_.push_back(builder.document_count());
            for (const auto& doc : sub.documents) builder.add_document(pipeline_.terms(doc.text));
        }
        index_.emplace(std::move(builder).build());
    }

    /// True when `ranking` (federation coordinates) names the same
    /// documents in the same order as the mono-server, with scores equal
    /// up to summation order.
    bool matches(std::string_view text, const std::vector<dir::GlobalResult>& ranking) const {
        const rank::QueryProcessor processor(*index_, rank::cosine_log_tf());
        const auto mono = processor.rank(rank::parse_query(text, pipeline_), kDepth);
        if (mono.size() != ranking.size()) return false;
        for (std::size_t i = 0; i < mono.size(); ++i) {
            const dir::GlobalResult& r = ranking[i];
            if (r.librarian >= offsets_.size() || offsets_[r.librarian] + r.doc != mono[i].doc ||
                std::abs(mono[i].score - r.score) > 1e-9) {
                return false;
            }
        }
        return true;
    }

private:
    text::Pipeline pipeline_;
    std::vector<std::uint32_t> offsets_;
    std::optional<index::InvertedIndex> index_;
};

/// The fetched documents are the ranked ones, byte for byte as stored.
bool fetched_correctly(const dir::QueryAnswer& answer,
                       const std::vector<std::unique_ptr<dir::Librarian>>& librarians) {
    if (answer.documents.size() != answer.ranking.size()) return false;
    for (std::size_t i = 0; i < answer.ranking.size(); ++i) {
        const dir::GlobalResult& r = answer.ranking[i];
        const dir::FetchedDocument& d = answer.documents[i];
        if (r.librarian >= librarians.size()) return false;
        const store::DocumentStore& store = librarians[r.librarian]->store();
        if (r.doc >= store.size()) return false;
        const auto stored = store.compressed(r.doc);
        if (d.external_id != store.external_id(r.doc) || !d.compressed ||
            !std::equal(stored.begin(), stored.end(), d.payload.begin(), d.payload.end())) {
            return false;
        }
    }
    return true;
}

}  // namespace

Report run_search_tcp(const Options& options) {
    const corpus::CorpusConfig config = corpus_config(options, 1.0);
    RunRecord run;
    const auto d = set_up<TcpDeployment>([&] { return assemble_search_tcp(config); }, run);
    dir::Receptionist& receptionist = *d->receptionist;

    const std::vector<std::string> queries = query_texts(d->corpus.short_queries);
    const std::vector<std::size_t> terms = term_counts(queries);
    std::vector<Expected> expected(queries.size());
    CheckPass check(options.trace, d->wire);
    {
        // Outside timing and outside setup_s: the reference rankings, and
        // one pass of every distinct query that checks them and counts
        // the bytes.
        const MonoReference mono(d->corpus);
        for (std::size_t i = 0; i < queries.size(); ++i) {
            const dir::QueryAnswer a = receptionist.query(search_request(queries[i]));
            check.add(a.trace);
            ++run.report.attempted;
            if (!a.degraded().ok() || !mono.matches(queries[i], a.ranking) ||
                !fetched_correctly(a, d->librarians)) {
                ++run.report.failed;
            }
            expected[i] = {a.ranking, digest(a.documents)};
        }
        check.end();
    }
    d->corpus = {};
    trim_heap();

    run.check = &check;
    run.loop = closed_loop(loop_config(options, 4),
                           [&](std::size_t, util::Rng& rng, QueryClock& clock) {
                               const std::size_t i = rng.below(queries.size());
                               const dir::QueryAnswer a = clock.time([&] {
                                   return receptionist.query(search_request(queries[i]));
                               });
                               Outcome o = outcome_of(a);
                               o.ok = o.ok && a.ranking == expected[i].ranking &&
                                      digest(a.documents) == expected[i].documents;
                               o.fetched = true;
                               o.query_index = static_cast<std::int64_t>(i);
                               o.terms = terms[i];
                               return o;
                           });
    return finish(options, run);
}

// ---- ci-tree ------------------------------------------------------------------

namespace {

constexpr std::size_t kReplicas = 2;     ///< R: channels per leaf librarian
constexpr std::size_t kAggregators = 2;  ///< ⌊√4⌋ mid-tier aggregators

struct TreeDeployment {
    corpus::SyntheticCorpus corpus;
    std::vector<std::unique_ptr<dir::Librarian>> librarians;
    WireCounter wire;
    std::vector<std::unique_ptr<dir::Receptionist>> aggregators;
    std::unique_ptr<dir::Receptionist> root;
    std::vector<std::uint32_t> leaf_offsets;  ///< prefix sums of leaf sizes

    /// Rebases a root result (aggregator, aggregator-local doc) onto
    /// (leaf, leaf-local doc): the flat federation's coordinates. Empty
    /// when the result names no aggregator.
    std::optional<dir::GlobalResult> to_leaf(const dir::GlobalResult& r) const {
        const std::vector<std::uint32_t>& offsets = root->librarian_offsets();
        if (r.librarian + 1 >= offsets.size()) return std::nullopt;
        const std::uint32_t global = offsets[r.librarian] + r.doc;
        const auto leaf = static_cast<std::size_t>(
            std::upper_bound(leaf_offsets.begin(), leaf_offsets.end(), global) -
            leaf_offsets.begin() - 1);
        return dir::GlobalResult{static_cast<std::uint32_t>(leaf), global - leaf_offsets[leaf],
                                 r.score};
    }
};

/// The depth-2 tree the library's TieredFederation builds in-process,
/// assembled here from its parts so that every channel and server can
/// carry a probe: leaves behind R = 2 replica channels, CV aggregators
/// over contiguous leaf pairs, and a CI root over the aggregators whose
/// grouped index spans the leaves.
std::unique_ptr<TreeDeployment> assemble_ci_tree(const corpus::CorpusConfig& config) {
    auto d = std::make_unique<TreeDeployment>();
    d->corpus = corpus::generate_corpus(config);
    d->librarians = build_librarians(d->corpus.subcollections);
    const dir::ReceptionistOptions options = paper_options(dir::Mode::CentralIndex);
    const std::size_t leaves = d->librarians.size();

    std::vector<Handler> handlers;
    std::vector<const index::InvertedIndex*> indexes;
    d->leaf_offsets.push_back(0);
    for (auto& librarian : d->librarians) {
        handlers.push_back(librarian_handler(*librarian));
        indexes.push_back(&librarian->index());
        d->leaf_offsets.push_back(d->leaf_offsets.back() + librarian->num_documents());
    }

    std::vector<dir::RouteTarget> root_targets;
    std::vector<std::uint32_t> ci_leaf_targets(leaves, 0);
    for (std::size_t j = 0; j < kAggregators; ++j) {
        dir::ReceptionistOptions agg_options = options;
        agg_options.mode = dir::Mode::CentralVocabulary;
        agg_options.tier = 1;
        agg_options.name = "receptionist-t1-" + std::to_string(j);
        std::vector<dir::RouteTarget> targets;
        for (std::size_t i = j * leaves / kAggregators; i < (j + 1) * leaves / kAggregators;
             ++i) {
            std::vector<std::unique_ptr<dir::Channel>> replicas;
            for (std::size_t r = 0; r < kReplicas; ++r) {
                replicas.push_back(timed_channel(
                    std::make_unique<dir::HandlerChannel>(d->librarians[i]->name(), handlers[i]),
                    agg_options.name + "#" + std::to_string(r),
                    nullptr));
            }
            targets.emplace_back(std::move(replicas), options.fault.breaker);
            ci_leaf_targets[i] = static_cast<std::uint32_t>(j);
        }
        auto aggregator = std::make_unique<dir::Receptionist>(std::move(targets), agg_options);
        aggregator->prepare();
        dir::Receptionist* raw = aggregator.get();
        const Handler handler =
            timed_handler([raw](const net::Message& m) { return raw->handle(m); },
                          Recorder::instance().add_node(agg_options.name, NodeRole::Aggregator));
        std::vector<std::unique_ptr<dir::Channel>> root_replica;
        root_replica.push_back(
            timed_channel(std::make_unique<dir::HandlerChannel>(agg_options.name, handler),
                          "root", &d->wire));
        root_targets.emplace_back(std::move(root_replica), options.fault.breaker);
        d->aggregators.push_back(std::move(aggregator));
    }
    d->root = std::make_unique<dir::Receptionist>(std::move(root_targets), options);
    d->root->prepare(indexes, ci_leaf_targets);
    return d;
}

}  // namespace

Report run_ci_tree(const Options& options) {
    const corpus::CorpusConfig config = corpus_config(options, 1.0);
    RunRecord run;
    const auto d = set_up<TreeDeployment>([&] { return assemble_ci_tree(config); }, run);
    dir::Receptionist& root = *d->root;

    const std::vector<std::string> queries = query_texts(d->corpus.long_queries);
    const std::vector<std::size_t> terms = term_counts(queries);
    std::vector<Expected> expected(queries.size());
    CheckPass check(options.trace, d->wire);
    {
        // Reference: the flat CI federation over the same leaves.
        std::vector<std::unique_ptr<dir::Channel>> channels;
        std::vector<const index::InvertedIndex*> indexes;
        for (auto& librarian : d->librarians) {
            channels.push_back(std::make_unique<dir::InProcessChannel>(*librarian));
            indexes.push_back(&librarian->index());
        }
        dir::Receptionist flat(std::move(channels), paper_options(dir::Mode::CentralIndex));
        flat.prepare(indexes);
        std::atomic<std::uint64_t> failed{0};
        parallel_for(queries.size(), [&](std::size_t i) {
            const dir::QueryAnswer a = root.rank(queries[i], kDepth);
            check.add(a.trace);
            const dir::QueryAnswer reference = flat.rank(queries[i], kDepth);
            bool same = a.degraded().ok() && a.ranking.size() == reference.ranking.size();
            for (std::size_t k = 0; same && k < a.ranking.size(); ++k) {
                same = d->to_leaf(a.ranking[k]) == reference.ranking[k];
            }
            if (!same) ++failed;
            expected[i] = {a.ranking, 0};
        });
        check.end();
        run.report.attempted += queries.size();
        run.report.failed += failed.load();
    }
    d->corpus = {};
    trim_heap();

    run.check = &check;
    run.loop = closed_loop(loop_config(options, 4),
                           [&](std::size_t, util::Rng& rng, QueryClock& clock) {
                               const std::size_t i = rng.below(queries.size());
                               const dir::QueryAnswer a =
                                   clock.time([&] { return root.rank(queries[i], kDepth); });
                               Outcome o = outcome_of(a);
                               o.ok = o.ok && a.ranking == expected[i].ranking;
                               o.query_index = static_cast<std::int64_t>(i);
                               o.terms = terms[i];
                               return o;
                           });
    return finish(options, run);
}

// ---- live-mix -----------------------------------------------------------------

namespace {

constexpr std::size_t kReaders = 3;
constexpr double kZipfS = 1.0;         ///< query-popularity skew
constexpr double kOneOffShare = 0.1;   ///< queries asked once, never repeated
constexpr std::size_t kBatchDocs = 8;  ///< documents per ingest batch
constexpr std::uint64_t kQueriesPerBatch = 8000;  ///< writer pacing
constexpr std::size_t kBatchesPerCompact = 4;
constexpr std::size_t kCheckQueries = 32;  ///< sampled for the final check

struct LiveDeployment {
    corpus::SyntheticCorpus corpus;
    std::vector<std::unique_ptr<dir::Librarian>> librarians;
    WireCounter wire;
    std::unique_ptr<dir::Receptionist> receptionist;
};

dir::ReceptionistOptions live_options() {
    dir::ReceptionistOptions options = paper_options(dir::Mode::CentralVocabulary);
    options.cache.enabled = true;
    return options;
}

std::unique_ptr<LiveDeployment> assemble_live_mix(const corpus::CorpusConfig& config) {
    auto d = std::make_unique<LiveDeployment>();
    d->corpus = corpus::generate_corpus(config);
    d->librarians = build_librarians(d->corpus.subcollections);
    std::vector<std::unique_ptr<dir::Channel>> channels;
    for (auto& librarian : d->librarians) {
        channels.push_back(timed_channel(
            std::make_unique<dir::HandlerChannel>(librarian->name(), librarian_handler(*librarian)),
            "root", &d->wire));
    }
    d->receptionist = std::make_unique<dir::Receptionist>(std::move(channels), live_options());
    d->receptionist->prepare();
    return d;
}

/// Receptionist::prepare() must not overlap queries. Readers pass the
/// gate around each query; the writer closes it, waits until no query
/// is inside, re-prepares, and reopens it. Closing takes priority over
/// entering, so the writer is not starved.
class Gate {
public:
    void enter() {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return !closed_; });
        ++inside_;
    }
    void leave() {
        std::lock_guard<std::mutex> lock(mu_);
        if (--inside_ == 0) cv_.notify_all();
    }
    template <typename F>
    void exclusive(F&& fn) {
        {
            std::unique_lock<std::mutex> lock(mu_);
            closed_ = true;
            cv_.wait(lock, [&] { return inside_ == 0; });
        }
        struct Reopen {
            Gate& gate;
            ~Reopen() {
                {
                    std::lock_guard<std::mutex> lock(gate.mu_);
                    gate.closed_ = false;
                }
                gate.cv_.notify_all();
            }
        } reopen{*this};
        fn();
    }

private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool closed_ = false;  ///< guarded by mu_
    int inside_ = 0;       ///< guarded by mu_
};

/// A token no document or other query contains: lower-case letters
/// spelling `n` in base 26 behind a fixed prefix.
std::string one_off_token(std::uint64_t n) {
    std::string token = " qzx";
    do {
        token.push_back(static_cast<char>('a' + n % 26));
        n /= 26;
    } while (n > 0);
    return token;
}

/// Ranks a sample of queries on the live federation (re-prepared) and on
/// a federation built from scratch over the same documents; returns how
/// many rankings differ.
std::uint64_t check_against_rebuild(dir::Receptionist& live,
                                    const std::vector<corpus::Subcollection>& combined,
                                    const std::vector<std::string>& sample) {
    live.prepare();
    const auto rebuilt = build_librarians(combined);
    std::vector<std::unique_ptr<dir::Channel>> channels;
    for (auto& librarian : rebuilt) {
        channels.push_back(std::make_unique<dir::InProcessChannel>(*librarian));
    }
    dir::Receptionist reference(std::move(channels), paper_options(dir::Mode::CentralVocabulary));
    reference.prepare();
    std::uint64_t mismatches = 0;
    for (const auto& q : sample) {
        const dir::QueryAnswer a = live.rank(q, kDepth);
        if (!a.degraded().ok() || a.ranking != reference.rank(q, kDepth).ranking) ++mismatches;
    }
    return mismatches;
}

}  // namespace

Report run_live_mix(const Options& options) {
    const corpus::CorpusConfig config = corpus_config(options, 0.125);
    RunRecord run;
    const auto d = set_up<LiveDeployment>([&] { return assemble_live_mix(config); }, run);
    dir::Receptionist& receptionist = *d->receptionist;

    const std::vector<std::string> queries = query_texts(d->corpus.short_queries);
    const std::vector<std::size_t> terms = term_counts(queries);
    const std::vector<double> weights = corpus::zipf_weights(queries.size(), kZipfS);
    const util::AliasSampler popularity(weights);

    // The writer's documents: a sibling corpus drawn from another seed.
    std::vector<store::Document> feed;
    {
        corpus::CorpusConfig sibling = config;
        sibling.seed = config.seed ^ 0x5EED;
        for (auto& sub : corpus::generate_corpus(sibling).subcollections) {
            for (auto& doc : sub.documents) feed.push_back(std::move(doc));
        }
    }

    CheckPass check(options.trace, d->wire);
    for (const auto& q : queries) {
        const dir::QueryAnswer a = receptionist.rank(q, kDepth);
        check.add(a.trace);
        ++run.report.attempted;
        if (!a.degraded().ok()) ++run.report.failed;
    }
    check.end();

    // The writer ingests a batch every kQueriesPerBatch completed
    // queries, compacts every kBatchesPerCompact batches, and re-prepares
    // the receptionist after each write so that CV's global statistics
    // follow the collection (answers in between are flagged stale).
    Gate gate;
    std::vector<corpus::Subcollection> combined = d->corpus.subcollections;
    std::uint64_t writer_failures = 0;
    const std::uint16_t writer_node = Recorder::instance().add_node("writer", NodeRole::Client);
    const auto timed_write = [&](const LoopState& state, SpanKind kind, std::vector<double>& out,
                                 const std::function<void()>& write) {
        util::Timer timer;
        {
            SpanScope span(kind, 0, writer_node);
            write();
        }
        if (state.timing()) out.push_back(timer.elapsed_ms());
        timer.restart();
        gate.exclusive([&] { receptionist.prepare(); });
        if (state.timing()) run.reprepare_ms.push_back(timer.elapsed_ms());
    };
    const SideFn writer = [&](const LoopState& state) {
        std::uint64_t due = kQueriesPerBatch;
        for (std::size_t batch = 0;; ++batch) {
            while (state.completed.load() < due && !state.stop.load()) {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
            if (state.stop.load()) return;
            due += kQueriesPerBatch;
            const std::size_t target = batch % d->librarians.size();
            dir::IngestRequest request;
            for (std::size_t k = 0; k < kBatchDocs; ++k) {
                const std::size_t n = batch * kBatchDocs + k;
                request.docs.push_back({"LIVE-" + std::to_string(n), feed[n % feed.size()].text});
            }
            try {
                timed_write(state, SpanKind::Ingest, run.ingest_ms, [&] {
                    if (receptionist.ingest(target, request).accepted != request.docs.size()) {
                        ++writer_failures;
                    }
                });
                for (auto& doc : request.docs) {
                    combined[target].documents.push_back({doc.external_id, doc.text});
                }
                if ((batch + 1) % kBatchesPerCompact == 0) {
                    const std::size_t victim = (batch / kBatchesPerCompact) % d->librarians.size();
                    timed_write(state, SpanKind::Compact, run.compact_ms,
                                [&] { receptionist.compact(victim, {.wait = true}); });
                }
            } catch (const std::exception& e) {
                std::printf("# writer: batch %zu failed: %s\n", batch, e.what());
                ++writer_failures;
            }
        }
    };

    run.check = &check;
    run.loop = closed_loop(
        loop_config(options, kReaders),
        [&](std::size_t, util::Rng& rng, QueryClock& clock) {
            // Repeats follow the popularity skew; one-offs are drawn
            // uniformly, so the cost of the misses they force does not
            // hinge on which few queries the seed made popular.
            const bool one_off = rng.chance(kOneOffShare);
            const std::size_t i = one_off ? rng.below(queries.size()) : popularity.sample(rng);
            const std::string text = one_off ? queries[i] + one_off_token(rng.next()) : queries[i];
            const dir::QueryAnswer a = clock.time([&] {
                gate.enter();
                struct Leave {
                    Gate& gate;
                    ~Leave() { gate.leave(); }
                } leave{gate};
                return receptionist.rank(text, kDepth);
            });
            Outcome o = outcome_of(a);
            o.query_index = one_off ? -1 : static_cast<std::int64_t>(i);
            o.terms = terms[i] + (one_off ? 1 : 0);
            return o;
        },
        writer);

    // Quiesced: the live collection must rank like a from-scratch build.
    std::vector<std::string> sample;
    for (std::size_t i = 0; i < std::min(kCheckQueries, queries.size()); ++i) {
        sample.push_back(queries[i]);
    }
    const std::uint64_t mismatches = check_against_rebuild(receptionist, combined, sample);
    run.report.attempted += sample.size();
    run.report.failed += mismatches;
    if (writer_failures > 0) run.report.correct = false;
    std::printf("# live-mix: %zu ingests, %zu compactions timed; %llu of %zu sampled queries "
                "differ from a rebuild\n",
                run.ingest_ms.size(), run.compact_ms.size(),
                static_cast<unsigned long long>(mismatches), sample.size());
    return finish(options, run);
}

}  // namespace perfbench
