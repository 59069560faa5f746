// Pass-through probes that time a deployment from the outside.
//
// The benchmark assembles every deployment from the library's public
// constructors and slips two kinds of probe into the assembly:
//
//  * TimedChannel — a dir::Channel decorator. It opens a span when a
//    request is submitted and closes it when the reply future becomes
//    ready (Future::on_ready), so the span is the client-side round
//    trip: encode + wire + server queue + server compute + decode.
//  * timed_handler — wraps a server's protocol handler (a librarian's
//    or an aggregator receptionist's handle()) in a span: the service
//    time of one request on the server.
//
// Round trip minus service time is what the network and the server's
// dispatch queue cost. Spans record only while Recorder::on() is set;
// otherwise each probe is one relaxed atomic load and a forward. The
// untraced and traced runs therefore use the same assembly, and the
// probes never touch a frame's bytes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "dir/route.h"
#include "net/message.h"

namespace perfbench {

enum class SpanKind : std::uint8_t { Query, Channel, Handler, Ingest, Compact };

/// One timed interval. `parent` is the span that was open on the
/// recording thread when this one started (0 = none), and `query` the
/// benchmark's id of the user query it serves (0 = unknown, e.g. a
/// server thread behind a socket).
struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t query = 0;
    std::int64_t start_ns = 0;  ///< since the recorder's epoch
    std::int64_t end_ns = 0;
    SpanKind kind = SpanKind::Query;
    std::uint16_t type = 0;  ///< net::MessageType of the request, when any
    std::uint16_t node = 0;  ///< index into Recorder::nodes()
};

/// Role of a probed endpoint, fixed when the deployment is assembled.
enum class NodeRole : std::uint8_t { Client, Channel, Librarian, Aggregator };

struct Node {
    std::string name;
    NodeRole role = NodeRole::Client;
};

/// Process-wide span store. Spans are kept in memory and written out
/// once, after the run.
class Recorder {
public:
    static Recorder& instance();

    bool on() const { return on_.load(std::memory_order_relaxed); }
    void set_on(bool on);

    /// Registers a probed endpoint; call while assembling, before any
    /// traffic flows.
    std::uint16_t add_node(std::string name, NodeRole role);
    const std::vector<Node>& nodes() const { return nodes_; }

    std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
    std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    void add(const Span& span);
    std::vector<Span> spans() const;

    /// Forgets the spans (e.g. those of an untimed pass).
    void clear_spans();
    /// Forgets the spans and the nodes (between set-up repetitions).
    void reset();

    /// Writes one CSV line per span; returns false when the file cannot
    /// be written.
    bool write_csv(const std::string& path) const;

private:
    Recorder() = default;

    std::atomic<bool> on_{false};
    std::atomic<std::uint64_t> next_id_{1};
    const std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
    std::vector<Node> nodes_;  ///< written only while assembling
    mutable std::mutex mu_;
    std::vector<Span> spans_;  ///< guarded by mu_
};

/// The user query and the open span of the calling thread. Children
/// started on this thread (synchronous in-process calls) link to them.
struct ThreadContext {
    std::uint64_t query = 0;
    std::uint64_t parent = 0;
};
ThreadContext& context();

/// RAII span for synchronous work on the calling thread: it becomes the
/// parent of every span opened inside it. Records nothing when the
/// recorder was off at construction.
class SpanScope {
public:
    SpanScope(SpanKind kind, std::uint16_t type, std::uint16_t node);
    ~SpanScope();
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    std::uint64_t id() const { return span_.id; }

private:
    bool active_ = false;
    std::uint64_t saved_parent_ = 0;
    Span span_;
};

/// Frames and bytes a set of channels carried, request plus reply.
struct WireCounter {
    std::atomic<std::uint64_t> frames{0};
    std::atomic<std::uint64_t> bytes{0};

    void reset() {
        frames.store(0);
        bytes.store(0);
    }
};

/// Channel decorator timing each round trip from submit to reply. When
/// `wire` is non-null the recorded exchanges also add their frame
/// counts and sizes (Message::wire_bytes) to it.
class TimedChannel final : public teraphim::dir::Channel {
public:
    TimedChannel(std::unique_ptr<teraphim::dir::Channel> inner, std::uint16_t node,
                 WireCounter* wire)
        : inner_(std::move(inner)), node_(node), wire_(wire) {}

    teraphim::util::Future<teraphim::net::Message> submit(
        const teraphim::net::Message& request) override {
        return timed(request, false);
    }
    teraphim::util::Future<teraphim::net::Message> submit_backup(
        const teraphim::net::Message& request) override {
        return timed(request, true);
    }
    void reset() override { inner_->reset(); }
    const std::string& name() const override { return inner_->name(); }

private:
    teraphim::util::Future<teraphim::net::Message> timed(const teraphim::net::Message& request,
                                                         bool backup);

    std::unique_ptr<teraphim::dir::Channel> inner_;
    std::uint16_t node_;
    WireCounter* wire_;
};

using Handler = std::function<teraphim::net::Message(const teraphim::net::Message&)>;

/// Wraps a server's protocol handler in a Handler span.
Handler timed_handler(Handler inner, std::uint16_t node);

}  // namespace perfbench
