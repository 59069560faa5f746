#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "net/message.h"

namespace perfbench {

namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Length of the part of [lo, hi) that `children` cover.
std::int64_t covered_ns(std::vector<Interval> children, std::int64_t lo, std::int64_t hi) {
    std::sort(children.begin(), children.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;
    for (auto [start, end] : children) {
        start = std::max(start, reach);
        end = std::min(end, hi);
        if (end <= start) continue;
        covered += end - start;
        reach = end;
    }
    return covered;
}

}  // namespace

double percentile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::vector<Metric> layer_metrics(const std::vector<Span>& spans, const std::vector<Node>& nodes,
                                  double traced_wall_s) {
    using teraphim::net::MessageType;
    const auto is = [](const Span& s, MessageType t) {
        return s.type == static_cast<std::uint16_t>(t);
    };

    std::unordered_map<std::uint64_t, std::vector<Interval>> children;
    for (const Span& s : spans) {
        if (s.kind == SpanKind::Channel && s.parent != 0) {
            children[s.parent].emplace_back(s.start_ns, s.end_ns);
        }
    }
    const auto self_ns = [&](const Span& s) {
        const auto it = children.find(s.id);
        if (it == children.end()) return s.end_ns - s.start_ns;
        return s.end_ns - s.start_ns - covered_ns(it->second, s.start_ns, s.end_ns);
    };

    double queries = 0.0;
    std::int64_t query_self = 0, aggregator_self = 0;
    std::int64_t rank = 0, candidate = 0, fetch = 0;
    std::int64_t channel_total = 0, handler_total = 0;
    std::vector<std::int64_t> busy(nodes.size(), 0);
    for (const Span& s : spans) {
        const std::int64_t ns = s.end_ns - s.start_ns;
        const NodeRole role = nodes[s.node].role;
        switch (s.kind) {
            case SpanKind::Query:
                queries += 1.0;
                query_self += self_ns(s);
                break;
            case SpanKind::Channel:
                channel_total += ns;
                break;
            case SpanKind::Handler:
                handler_total += ns;
                if (role == NodeRole::Aggregator) aggregator_self += self_ns(s);
                if (role != NodeRole::Librarian) break;
                busy[s.node] += ns;
                if (is(s, MessageType::RankRequest) || is(s, MessageType::RankWeightedRequest)) {
                    rank += ns;
                } else if (is(s, MessageType::CandidateRequest)) {
                    candidate += ns;
                } else if (is(s, MessageType::FetchRequest)) {
                    fetch += ns;
                }
                break;
            case SpanKind::Ingest:
            case SpanKind::Compact:
                break;
        }
    }
    const double per_query = 1.0 / (1e6 * std::max(queries, 1.0));
    const double busiest = static_cast<double>(*std::max_element(busy.begin(), busy.end()));
    return {
        {"dir.librarian.rank_ms", static_cast<double>(rank) * per_query, "ms"},
        {"dir.librarian.candidate_ms", static_cast<double>(candidate) * per_query, "ms"},
        {"store.fetch_ms", static_cast<double>(fetch) * per_query, "ms"},
        {"dir.receptionist.self_ms", static_cast<double>(query_self) * per_query, "ms"},
        {"dir.aggregator.self_ms", static_cast<double>(aggregator_self) * per_query, "ms"},
        {"net.overhead_ms", static_cast<double>(channel_total - handler_total) * per_query, "ms"},
        {"dir.librarian.busy_frac", busiest / (1e9 * std::max(traced_wall_s, 1e-9)), "frac"},
    };
}

}  // namespace perfbench
