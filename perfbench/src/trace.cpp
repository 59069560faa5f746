#include "trace.h"

#include <cstdio>

namespace perfbench {

namespace tm = teraphim;

namespace {

const char* span_kind_name(SpanKind kind) {
    switch (kind) {
        case SpanKind::Query: return "query";
        case SpanKind::Channel: return "channel";
        case SpanKind::Handler: return "handler";
        case SpanKind::Ingest: return "ingest";
        case SpanKind::Compact: return "compact";
    }
    return "?";
}

}  // namespace

Recorder& Recorder::instance() {
    static Recorder recorder;
    return recorder;
}

void Recorder::set_on(bool on) {
    if (on) {
        // Grow the store before recording, not while spans queue on mu_.
        std::lock_guard<std::mutex> lock(mu_);
        spans_.reserve(std::size_t{1} << 20);
    }
    on_.store(on, std::memory_order_relaxed);
}

std::uint16_t Recorder::add_node(std::string name, NodeRole role) {
    nodes_.push_back({std::move(name), role});
    return static_cast<std::uint16_t>(nodes_.size() - 1);
}

void Recorder::add(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
}

std::vector<Span> Recorder::spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

void Recorder::clear_spans() {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
}

void Recorder::reset() {
    clear_spans();
    nodes_.clear();
}

bool Recorder::write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,parent,query,kind,type,node,start_ns,end_ns\n");
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
        std::fprintf(f, "%llu,%llu,%llu,%s,%u,%s,%lld,%lld\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.query), span_kind_name(s.kind),
                     static_cast<unsigned>(s.type), nodes_[s.node].name.c_str(),
                     static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
}

ThreadContext& context() {
    thread_local ThreadContext ctx;
    return ctx;
}

SpanScope::SpanScope(SpanKind kind, std::uint16_t type, std::uint16_t node) {
    Recorder& rec = Recorder::instance();
    active_ = rec.on();
    if (!active_) return;
    ThreadContext& ctx = context();
    span_.id = rec.next_id();
    span_.parent = ctx.parent;
    span_.query = ctx.query;
    span_.kind = kind;
    span_.type = type;
    span_.node = node;
    saved_parent_ = ctx.parent;
    ctx.parent = span_.id;
    span_.start_ns = rec.now_ns();
}

SpanScope::~SpanScope() {
    if (!active_) return;
    Recorder& rec = Recorder::instance();
    span_.end_ns = rec.now_ns();
    context().parent = saved_parent_;
    rec.add(span_);
}

tm::util::Future<tm::net::Message> TimedChannel::timed(const tm::net::Message& request,
                                                       bool backup) {
    Recorder& rec = Recorder::instance();
    if (!rec.on()) return backup ? inner_->submit_backup(request) : inner_->submit(request);

    ThreadContext& ctx = context();
    Span span;
    span.id = rec.next_id();
    span.parent = ctx.parent;
    span.query = ctx.query;
    span.kind = SpanKind::Channel;
    span.type = static_cast<std::uint16_t>(request.type);
    span.node = node_;
    const std::uint64_t request_bytes = request.wire_bytes();

    // In-process servers run inside submit(): their spans are children
    // of this one.
    const std::uint64_t saved_parent = ctx.parent;
    ctx.parent = span.id;
    span.start_ns = rec.now_ns();
    auto held = std::make_shared<tm::util::Future<tm::net::Message>>(
        backup ? inner_->submit_backup(request) : inner_->submit(request));
    ctx.parent = saved_parent;

    auto promise = std::make_shared<tm::util::Promise<tm::net::Message>>();
    tm::util::Future<tm::net::Message> out = promise->future();
    WireCounter* wire = wire_;
    held->on_ready([promise, held, span, request_bytes, wire]() mutable {
        Recorder& r = Recorder::instance();
        span.end_ns = r.now_ns();
        r.add(span);
        try {
            tm::net::Message reply = held->get();
            if (wire != nullptr) {
                wire->frames.fetch_add(2, std::memory_order_relaxed);
                wire->bytes.fetch_add(request_bytes + reply.wire_bytes(),
                                      std::memory_order_relaxed);
            }
            promise->set_value(std::move(reply));
        } catch (...) {
            promise->set_exception(std::current_exception());
        }
    });
    return out;
}

Handler timed_handler(Handler inner, std::uint16_t node) {
    return [inner = std::move(inner), node](const tm::net::Message& request) {
        SpanScope span(SpanKind::Handler, static_cast<std::uint16_t>(request.type), node);
        return inner(request);
    };
}

}  // namespace perfbench
