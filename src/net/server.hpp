#pragma once

// The asynchronous network front end of the mapping service.
//
//   wire clients ──► wire listener ─┐                            ┌─► admission
//                                   ├─► one reactor thread ──────┤    ├─ shed (queue watermark by priority)
//   scrapers ──────► HTTP listener ─┘   (epoll/poll EventLoop)   │    ├─ reject (deadline already infeasible)
//                    (optional)                                  │    └─ MappingService::try_submit
//                                                                │         └─ worker callback ─► outbox ─► wakeup ─► reactor writes response
//                                                                └─► parse_http_head ─► /metrics | /healthz | /debug/requests ─► write, close
//
// One thread runs the reactor: it accepts connections, reassembles
// length-prefixed frames from partial reads (wire.hpp), makes the
// admission decision inline, and writes responses with partial-write
// buffering — it never blocks on a socket, a queue, or a solver, so the
// listener stays responsive at any offered load.  Solves happen on the
// service's worker pumps; completions cross back to the reactor through
// a mutex-guarded outbox plus a `Wakeup` fd.
//
// HTTP (when `ServerConfig::http_port` is set): a second listener on
// the same loop serves `/metrics`, `/healthz` and `/debug/requests`
// (docs/NETWORKING.md §"HTTP routes").  An HTTP connection is one
// request — read to the blank line, answered, closed once flushed —
// under the wire port's connection cap, idle sweep and write-backlog
// cap.  It books `net.http_requests` and no admission counter.
//
// Admission control, in decision order per request:
//   1. malformed payload / unknown solver  → kBadRequest
//   2. unknown instance fingerprint        → kUnknownInstance
//   3. strict deadline already expired, or projected queue wait
//      (MappingService::projected_wait_seconds, estimated from the
//      service latency histograms) >= remaining deadline
//                                          → kRejectedDeadline
//   4. pending depth over the priority's watermark (low sheds first,
//      high last), or the service queue full → kShed
//   5. otherwise                            → enqueue; kOk (or
//      kServerError if the solver fails after admission)
//
// Every request reaches exactly one terminal `net.*` counter, so
//   net.requests == net.served + net.shed + net.rejected_deadline
//                 + net.bad_request + net.unknown_instance
//                 + net.server_error
// holds exactly once the server is quiesced (pinned by
// tests/net_server_test.cpp).  Counters land in the service's
// MetricsRegistry, so one /metrics scrape covers the whole stack;
// overload decisions are also emitted as `net.*` service events on the
// configured sink for `match_inspect overload`.
//
// Span tracing (obs/spans.hpp): when `ServerConfig::recorder` is set,
// every request carries a `SpanTimeline` stamped at each pipeline stage
// (accept/decode/admission on the reactor, queue_wait/solve in the
// service, encode/write_flush back on the reactor) and sealed into the
// recorder by `finish`.  With no recorder the reactor takes zero extra
// clock reads and the hot path is byte-identical to the untraced build
// (pure-observer contract, pinned by tests and the span arm of
// bench/ext_obs_overhead.cpp).
//
// Reactor saturation telemetry, always on: the
// `net.reactor.iteration_seconds` histogram times each event-loop
// iteration (wait return → housekeeping done), and every ~250 ms the
// reactor samples `net.reactor.pending_requests`,
// `net.reactor.connections`, `service.queue_depth`, and
// `service.in_flight` gauges — the four numbers that say whether the
// loop, the admission window, or the worker pool is the bottleneck.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/event_loop.hpp"
#include "net/socket_util.hpp"
#include "net/wire.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "service/deadline.hpp"
#include "service/service.hpp"

namespace match::obs {
class FlightRecorder;
struct SpanTimeline;
}

namespace match::net {

struct AdmissionConfig {
  /// Bounded accept queue: requests admitted to the service but not yet
  /// answered.  The service's own `queue_capacity` should be >= this,
  /// otherwise `try_submit` turns the excess into sheds anyway.
  std::size_t max_pending = 512;

  /// Per-priority drop policy, as fractions of `max_pending`: a low-
  /// priority request is shed once pending >= low_watermark × max, a
  /// normal one at normal_watermark × max, and high priority uses the
  /// full budget.  Low sheds first under overload by construction.
  double low_watermark = 0.5;
  double normal_watermark = 0.8;

  /// Reject a deadline-carrying request when the projected queue wait
  /// already exceeds its whole budget (cheaper for everyone than
  /// queueing work guaranteed to miss).
  bool deadline_early_reject = true;
};

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; see `MatchServer::port()`
  /// HTTP listener for /metrics, /healthz and /debug/requests on the
  /// same reactor, bound to `bind_address` with `backlog`.  Unset = no
  /// HTTP listener; 0 = ephemeral, see `MatchServer::http_port()`.
  std::optional<std::uint16_t> http_port;
  int backlog = 128;
  std::size_t max_connections = 1024;

  /// Connections silent for this long are closed on the reactor's
  /// housekeeping tick (~100 ms granularity).  <= 0 disables.
  double idle_timeout_seconds = 30.0;

  /// A connection whose unsent response backlog exceeds this is closed:
  /// a reader that stops reading must not hold reactor memory hostage.
  std::size_t max_write_buffer = 4u << 20;

  /// Inline instances are remembered by canonical fingerprint (FIFO
  /// eviction) so clients can switch to cheap fingerprint-only requests.
  std::size_t max_instances = 4096;

  AdmissionConfig admission;
  EventLoop::Backend backend = EventLoop::default_backend();

  /// Optional sink for per-request overload events (`net.served`,
  /// `net.shed`, ...); must be thread-compatible with the reactor
  /// thread and outlive the server.  Null disables.
  obs::EventSink* sink = nullptr;

  /// Optional flight recorder; non-null turns on per-request span
  /// timelines (see the header comment).  Must outlive the server.
  /// Null disables tracing entirely — zero extra clock reads.
  obs::FlightRecorder* recorder = nullptr;
};

/// The built-in HTTP routes.
enum class HttpRoute { kNone, kMetrics, kHealthz, kDebugRequests };

/// What one HTTP request head asks for.
struct HttpHead {
  int status = 400;  ///< 200 (`route` is set), 400, 404 or 405
  HttpRoute route = HttpRoute::kNone;
  bool head_only = false;  ///< a HEAD request: answer with headers only
};

/// Parses an HTTP/1.x request head (the bytes before the blank line):
/// the request line's method and target, query string ignored.  A line
/// without a space is a 400, a method other than GET or HEAD a 405, an
/// unknown target a 404.  Pure: reads only `head`, never throws.
HttpHead parse_http_head(std::string_view head) noexcept;

/// Point-in-time admission accounting, read from the service registry.
struct ServerCounters {
  std::uint64_t requests = 0;  ///< offered = every decoded request frame
  std::uint64_t served = 0;
  std::uint64_t served_deadline_missed = 0;  ///< subset of `served`
  std::uint64_t shed = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t bad_request = 0;
  std::uint64_t unknown_instance = 0;
  std::uint64_t server_error = 0;

  std::uint64_t terminal() const {
    return served + shed + rejected_deadline + bad_request +
           unknown_instance + server_error;
  }
};

class MatchServer {
 public:
  /// Binds and starts the reactor thread.  The service must outlive the
  /// server.  Throws `std::runtime_error` when the port cannot be
  /// bound.
  explicit MatchServer(service::MappingService& service,
                       ServerConfig config = {});

  /// Runs `stop()`.
  ~MatchServer();

  MatchServer(const MatchServer&) = delete;
  MatchServer& operator=(const MatchServer&) = delete;

  /// The port actually bound (== config.port unless that was 0).
  std::uint16_t port() const noexcept { return port_; }

  /// The HTTP port actually bound; 0 when `config.http_port` is unset.
  std::uint16_t http_port() const noexcept { return http_port_; }

  const ServerConfig& config() const noexcept { return config_; }

  /// Closes the listeners, joins the reactor, drains outstanding
  /// admitted requests (their terminal counters still land, so the
  /// accounting identity holds after stop), and closes every
  /// connection.  Idempotent.
  void stop();

  /// Snapshot of the `net.*` admission counters.
  ServerCounters counters() const;

  /// Live connection count (reactor-maintained gauge).
  std::size_t connections() const;

 private:
  struct Connection {
    std::uint64_t id = 0;
    int fd = -1;
    std::string in;
    std::size_t in_consumed = 0;
    std::string out;
    std::size_t out_written = 0;
    service::Clock::time_point last_activity;
    bool want_write = false;
    /// Peer half-closed (read EOF) — a pipelining client that sent its
    /// batch and shut down its write side.  The connection stays open
    /// until every admitted request has been answered and flushed.
    bool read_closed = false;
    /// Admitted-but-unanswered requests from THIS connection.
    std::size_t inflight = 0;
    /// Accepted on the HTTP listener: one request head, one response.
    bool http = false;
  };

  struct Completed {
    std::uint64_t conn_id = 0;
    WireResponse response;
    service::Clock::time_point arrived_at;
    /// The request's span timeline riding back from the worker (null
    /// when tracing is off).  shared_ptr because the completion
    /// callback lives in a copyable std::function.
    std::shared_ptr<obs::SpanTimeline> timeline;
  };

  void run();
  void accept_new(int listen_fd);
  void close_connection(Connection& conn, const char* counter);
  bool handle_readable(int fd);   ///< false: connection closed
  /// Answers the HTTP request buffered in `conn.in` once its head is
  /// complete (or the peer half-closed).  false: connection closed.
  bool handle_http(Connection& conn, bool eof);
  /// The full response for `head`; a render that throws is a 500.
  std::string http_response(const HttpHead& head) const;
  bool parse_frames(int fd);      ///< false: protocol error
  void handle_request(Connection& conn, const FrameHeader& header,
                      std::string_view payload);
  void respond(Connection& conn, const WireResponse& response,
               obs::SpanTimeline* timeline = nullptr);
  bool flush_writes(Connection& conn);      ///< false: connection closed
  /// Closes `fd` iff the peer half-closed and nothing is owed to it.
  void maybe_close_half_closed(int fd);
  void drain_outbox(bool deliver);
  void sweep_idle();
  std::size_t shed_threshold(Priority priority) const;
  /// Books the terminal decision: counter, latency histogram, overload
  /// event.  Runs BEFORE the response bytes go out, so a client that
  /// already holds its answer always observes up-to-date counters.
  void finish(Status status, std::uint64_t request_id,
              service::SolverKind solver,
              service::Clock::time_point arrived_at, bool deadline_missed);
  /// Seals and records the span timeline.  Runs AFTER respond() so the
  /// encode/write_flush spans are on the timeline; the timeline total
  /// therefore covers encode + flush even though net.request_seconds
  /// (stamped in finish) does not.
  void seal_timeline(std::shared_ptr<obs::SpanTimeline> timeline,
                     Status status, bool deadline_missed);
  bool tracing() const { return config_.recorder != nullptr; }

  service::MappingService& service_;
  ServerConfig config_;
  obs::MetricsRegistry& metrics_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int http_listen_fd_ = -1;
  std::uint16_t http_port_ = 0;
  EventLoop loop_;
  Wakeup wakeup_;

  std::unordered_map<int, Connection> conns_;       ///< by fd
  std::unordered_map<std::uint64_t, int> conn_fd_;  ///< id → fd
  std::uint64_t next_conn_id_ = 1;
  std::atomic<std::size_t> live_connections_{0};

  /// Admitted-but-unanswered requests (reactor thread only).
  std::size_t pending_ = 0;

  /// When tracing: the instant the current read burst became readable —
  /// the accept-span origin for every frame decoded from that burst.
  service::Clock::time_point read_started_{};

  /// Inline instances (TIG or DAG) by canonical fingerprint,
  /// FIFO-evicted.
  std::unordered_map<std::uint64_t,
                     std::shared_ptr<const workload::AnyInstance>>
      instances_;
  std::deque<std::uint64_t> instance_order_;

  std::mutex outbox_mutex_;
  std::vector<Completed> outbox_;

  std::atomic<bool> stopping_{false};
  bool stopped_ = false;  ///< stop() ran to completion (main thread only)
  std::thread thread_;
};

}  // namespace match::net
