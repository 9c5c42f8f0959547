#include "net/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "obs/prometheus.hpp"
#include "obs/spans.hpp"
#include "service/instance_cache.hpp"

namespace match::net {

namespace {

using service::Clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Housekeeping granularity: idle sweeps and outbox drains happen at
/// least this often even with no socket activity.
constexpr int kTickMs = 50;

constexpr std::size_t kRecvChunk = 64 * 1024;

/// Compact the input buffer once the consumed prefix crosses this, so
/// frame reassembly stays O(bytes) instead of O(bytes²).
constexpr std::size_t kCompactThreshold = 64 * 1024;

const char* event_action(Status status, bool deadline_missed) {
  if (status == Status::kOk) {
    return deadline_missed ? "net.served_deadline_missed" : "net.served";
  }
  switch (status) {
    case Status::kShed:
      return "net.shed";
    case Status::kRejectedDeadline:
      return "net.rejected_deadline";
    case Status::kBadRequest:
      return "net.bad_request";
    case Status::kUnknownInstance:
      return "net.unknown_instance";
    case Status::kServerError:
      return "net.server_error";
    case Status::kOk:
      break;
  }
  return "net.served";
}

const char* status_counter(Status status) {
  switch (status) {
    case Status::kOk:
      return "net.served";
    case Status::kShed:
      return "net.shed";
    case Status::kRejectedDeadline:
      return "net.rejected_deadline";
    case Status::kBadRequest:
      return "net.bad_request";
    case Status::kUnknownInstance:
      return "net.unknown_instance";
    case Status::kServerError:
      return "net.server_error";
  }
  return "net.served";
}

/// Admission-span outcome tag for a refused request.
const char* admission_outcome(Status status) {
  switch (status) {
    case Status::kShed:
      return "shed";
    case Status::kRejectedDeadline:
      return "rejected_deadline";
    case Status::kBadRequest:
      return "bad_request";
    case Status::kUnknownInstance:
      return "unknown_instance";
    case Status::kServerError:
    case Status::kOk:
      break;
  }
  return "admitted";
}

/// Gauge sampling period for the reactor saturation telemetry.
constexpr double kGaugeSampleSeconds = 0.25;

/// An HTTP request head (blank line included) longer than this is a 400.
constexpr std::size_t kMaxHttpHead = 16 * 1024;

}  // namespace

MatchServer::MatchServer(service::MappingService& service, ServerConfig config)
    : service_(service),
      config_(std::move(config)),
      metrics_(service.metrics()),
      loop_(config_.backend) {
  ListenerOptions listener;
  listener.bind_address = config_.bind_address;
  listener.port = config_.port;
  listener.backlog = config_.backlog;
  listen_fd_ = open_listener(listener);
  try {
    port_ = bound_port(listen_fd_);
    loop_.add(listen_fd_, /*want_read=*/true, /*want_write=*/false);
    loop_.add(wakeup_.fd(), /*want_read=*/true, /*want_write=*/false);
    if (config_.http_port) {
      listener.port = *config_.http_port;
      http_listen_fd_ = open_listener(listener);
      http_port_ = bound_port(http_listen_fd_);
      loop_.add(http_listen_fd_, /*want_read=*/true, /*want_write=*/false);
    }
  } catch (...) {
    close_fd(http_listen_fd_);
    close_fd(listen_fd_);
    throw;
  }
  thread_ = std::thread([this] { run(); });
}

MatchServer::~MatchServer() { stop(); }

void MatchServer::stop() {
  if (stopped_) return;
  stopping_.store(true, std::memory_order_relaxed);
  wakeup_.notify();
  if (thread_.joinable()) thread_.join();
  // Outstanding admitted requests keep their completion callbacks alive
  // inside the service; wait them out so no callback can touch a dead
  // server, then fold their terminal counters in (undelivered — every
  // connection is going away — but accounted, so
  // served+shed+rejected == offered survives a mid-flight stop).
  service_.drain();
  drain_outbox(/*deliver=*/false);
  for (auto& [fd, conn] : conns_) {
    int client = conn.fd;
    close_fd(client);
    metrics_.counter("net.connections_closed").add();
  }
  conns_.clear();
  conn_fd_.clear();
  live_connections_.store(0, std::memory_order_relaxed);
  close_fd(listen_fd_);
  close_fd(http_listen_fd_);
  stopped_ = true;
}

ServerCounters MatchServer::counters() const {
  const obs::MetricsRegistry& m = metrics_;
  ServerCounters c;
  c.requests = m.counter_value("net.requests");
  c.served = m.counter_value("net.served");
  c.served_deadline_missed = m.counter_value("net.served_deadline_missed");
  c.shed = m.counter_value("net.shed");
  c.rejected_deadline = m.counter_value("net.rejected_deadline");
  c.bad_request = m.counter_value("net.bad_request");
  c.unknown_instance = m.counter_value("net.unknown_instance");
  c.server_error = m.counter_value("net.server_error");
  return c;
}

std::size_t MatchServer::connections() const {
  return live_connections_.load(std::memory_order_relaxed);
}

void MatchServer::run() {
  std::vector<EventLoop::Ready> ready;
  // Saturation telemetry: resolve the metric references once — the loop
  // body must not pay a registry lookup per iteration.
  obs::Histogram& iteration_hist =
      metrics_.histogram("net.reactor.iteration_seconds");
  obs::Gauge& pending_gauge = metrics_.gauge("net.reactor.pending_requests");
  obs::Gauge& connections_gauge = metrics_.gauge("net.reactor.connections");
  obs::Gauge& queue_depth_gauge = metrics_.gauge("service.queue_depth");
  obs::Gauge& in_flight_gauge = metrics_.gauge("service.in_flight");
  Clock::time_point last_sample = Clock::now();
  while (!stopping_.load(std::memory_order_relaxed)) {
    try {
      loop_.wait(kTickMs, ready);
      const Clock::time_point iteration_start = Clock::now();
      // Ready entries were collected at wait() time: a connection
      // accepted later in this iteration can reuse the fd of one that
      // drain_outbox or an earlier event closed, and a stale entry for
      // the old fd must not be applied to the newcomer.  Ids are
      // monotonic, so anything at or past this limit postdates the
      // batch; its real readiness is re-reported on the next wait().
      const std::uint64_t batch_id_limit = next_conn_id_;
      drain_outbox(/*deliver=*/true);
      for (const EventLoop::Ready& ev : ready) {
        if (ev.fd == listen_fd_ || ev.fd == http_listen_fd_) {
          accept_new(ev.fd);
          continue;
        }
        if (ev.fd == wakeup_.fd()) {
          wakeup_.drain();
          continue;  // outbox already drained above
        }
        const auto it = conns_.find(ev.fd);
        if (it == conns_.end()) continue;  // closed earlier this iteration
        if (it->second.id >= batch_id_limit) continue;  // fd reused
        if (ev.error) {
          close_connection(it->second, "net.connections_closed");
          continue;
        }
        if (ev.readable && !handle_readable(ev.fd)) continue;
        if (ev.writable) {
          const auto again = conns_.find(ev.fd);
          if (again != conns_.end() && flush_writes(again->second)) {
            maybe_close_half_closed(ev.fd);
          }
        }
      }
      sweep_idle();
      // Iteration latency excludes the wait itself: a loop that sleeps
      // 50 ms idle is healthy; one that *works* 50 ms per wakeup is
      // saturated.
      const Clock::time_point iteration_end = Clock::now();
      iteration_hist.observe(seconds_between(iteration_start, iteration_end));
      if (seconds_between(last_sample, iteration_end) >= kGaugeSampleSeconds) {
        last_sample = iteration_end;
        pending_gauge.set(static_cast<double>(pending_));
        connections_gauge.set(static_cast<double>(conns_.size()));
        queue_depth_gauge.set(static_cast<double>(service_.queue_depth()));
        in_flight_gauge.set(static_cast<double>(service_.in_flight()));
      }
    } catch (const std::exception&) {
      // A transient kernel refusal (epoll_ctl/poll ENOMEM, ...) must
      // not unwind the reactor thread — an escaped exception would
      // std::terminate the whole process.  Count it and keep serving;
      // level-triggered readiness re-reports whatever the aborted
      // iteration left undone.
      metrics_.counter("net.reactor_errors").add();
    }
  }
}

void MatchServer::accept_new(int listen_fd) {
  for (;;) {
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      // EAGAIN: drained.  Anything else (EMFILE, ...) is transient —
      // the listener stays registered and we retry on the next tick.
      return;
    }
    if (conns_.size() >= config_.max_connections) {
      int fd = client;
      close_fd(fd);
      metrics_.counter("net.connections_rejected").add();
      continue;
    }
    if (!set_nonblocking(client, true)) {
      int fd = client;
      close_fd(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    Connection conn;
    conn.id = next_conn_id_++;
    conn.fd = client;
    conn.last_activity = Clock::now();
    conn.http = listen_fd == http_listen_fd_;
    try {
      loop_.add(client, /*want_read=*/true, /*want_write=*/false);
    } catch (...) {
      int fd = client;
      close_fd(fd);
      continue;
    }
    conn_fd_.emplace(conn.id, client);
    conns_.emplace(client, std::move(conn));
    metrics_.counter("net.connections_accepted").add();
    live_connections_.store(conns_.size(), std::memory_order_relaxed);
  }
}

void MatchServer::close_connection(Connection& conn, const char* counter) {
  const int fd = conn.fd;
  const std::uint64_t id = conn.id;
  loop_.remove(fd);
  int closing = fd;
  close_fd(closing);
  conn_fd_.erase(id);
  conns_.erase(fd);  // invalidates `conn`
  metrics_.counter(counter).add();
  if (counter != std::string_view("net.connections_closed")) {
    metrics_.counter("net.connections_closed").add();
  }
  live_connections_.store(conns_.size(), std::memory_order_relaxed);
}

bool MatchServer::handle_readable(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return false;
  // Accept-span origin for every frame decoded from this read burst
  // (pipelined frames share it: each span reads "readiness → my decode
  // started", which for frame N includes its wait behind frames 1..N-1).
  if (tracing()) read_started_ = Clock::now();
  Connection& conn = it->second;  // stable: nothing closes in the recv loop
  bool eof = false;
  char buf[kRecvChunk];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {
      eof = true;  // half-close: parse what we have, answer it, then close
      break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_connection(conn, "net.connections_closed");
      return false;
    }
    conn.in.append(buf, static_cast<std::size_t>(n));
    conn.last_activity = Clock::now();
    if (static_cast<std::size_t>(n) < sizeof(buf)) break;
    if (conn.http && conn.in.size() > kMaxHttpHead) break;
  }
  if (conn.http) return handle_http(conn, eof);
  if (!parse_frames(fd)) {
    metrics_.counter("net.protocol_errors").add();
    const auto again = conns_.find(fd);
    if (again != conns_.end()) {
      close_connection(again->second, "net.connections_closed");
    }
    return false;
  }
  const auto again = conns_.find(fd);
  if (again == conns_.end()) return false;  // closed while answering
  if (eof) {
    Connection& half = again->second;
    half.read_closed = true;
    half.last_activity = Clock::now();
    loop_.modify(fd, /*want_read=*/false, half.want_write);
    maybe_close_half_closed(fd);
    return conns_.find(fd) != conns_.end();
  }
  return true;
}

bool MatchServer::parse_frames(int fd) {
  // Re-look the connection up every frame: handling a request can close
  // it (slow-client eviction on the write path), which invalidates any
  // held reference.
  for (;;) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) return true;
    Connection& conn = it->second;
    const std::string_view buffered =
        std::string_view(conn.in).substr(conn.in_consumed);
    if (buffered.size() < kHeaderSize) break;
    FrameHeader header;
    try {
      header = decode_header(buffered);
    } catch (const WireError&) {
      return false;  // bad magic/version/size: the stream is unsynced
    }
    if (header.type != MsgType::kRequest) return false;
    const std::size_t frame_size = kHeaderSize + header.payload_size;
    if (buffered.size() < frame_size) break;  // wait for the rest
    handle_request(conn, header,
                   buffered.substr(kHeaderSize, header.payload_size));
    const auto after = conns_.find(fd);
    if (after == conns_.end()) return true;
    after->second.in_consumed += frame_size;
  }
  const auto it = conns_.find(fd);
  if (it != conns_.end()) {
    Connection& conn = it->second;
    if (conn.in_consumed == conn.in.size()) {
      conn.in.clear();
      conn.in_consumed = 0;
    } else if (conn.in_consumed > kCompactThreshold) {
      conn.in.erase(0, conn.in_consumed);
      conn.in_consumed = 0;
    }
  }
  return true;
}

void MatchServer::maybe_close_half_closed(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Connection& conn = it->second;
  if (conn.read_closed && conn.inflight == 0 &&
      conn.out_written >= conn.out.size()) {
    close_connection(conn, "net.connections_closed");
  }
}

std::size_t MatchServer::shed_threshold(Priority priority) const {
  const AdmissionConfig& adm = config_.admission;
  const double cap = static_cast<double>(adm.max_pending);
  switch (priority) {
    case Priority::kLow:
      return static_cast<std::size_t>(adm.low_watermark * cap);
    case Priority::kNormal:
      return static_cast<std::size_t>(adm.normal_watermark * cap);
    case Priority::kHigh:
      break;
  }
  return adm.max_pending;
}

void MatchServer::finish(Status status, std::uint64_t request_id,
                         service::SolverKind solver,
                         Clock::time_point arrived_at, bool deadline_missed) {
  metrics_.counter(status_counter(status)).add();
  if (status == Status::kOk && deadline_missed) {
    metrics_.counter("net.served_deadline_missed").add();
  }
  const double seconds = seconds_between(arrived_at, Clock::now());
  metrics_.histogram("net.request_seconds").observe(seconds);
  if (config_.sink != nullptr) {
    config_.sink->emit(obs::Event::service_event(
        request_id, service::to_string(solver),
        event_action(status, deadline_missed), seconds));
  }
}

void MatchServer::seal_timeline(std::shared_ptr<obs::SpanTimeline> timeline,
                                Status status, bool deadline_missed) {
  if (timeline == nullptr || config_.recorder == nullptr) return;
  timeline->finalize(event_action(status, deadline_missed), Clock::now());
  config_.recorder->record(std::move(*timeline));
}

void MatchServer::handle_request(Connection& conn, const FrameHeader& header,
                                 std::string_view payload) {
  metrics_.counter("net.requests").add();
  const Clock::time_point arrived_at = Clock::now();

  // Span timeline for this request.  Stamping discipline: the reactor
  // stamps accept/decode/admission here, hands ownership to the worker
  // through `request.timeline` + the callback closure, and stamps
  // encode/write_flush in respond() when the completion comes back.
  // Refusals are stamped and sealed entirely on this thread.
  std::shared_ptr<obs::SpanTimeline> tl;
  if (tracing()) {
    tl = std::make_shared<obs::SpanTimeline>();
    tl->start(header.request_id, read_started_);
    tl->stamp(obs::SpanStage::kAccept, read_started_, arrived_at);
  }

  WireResponse reply;
  reply.request_id = header.request_id;

  WireRequest request;
  try {
    request = decode_request(header, payload);
  } catch (const WireError& e) {
    reply.status = Status::kBadRequest;
    reply.error = e.what();
    if (tl) {
      tl->stamp(obs::SpanStage::kDecode, arrived_at, Clock::now(),
                "bad_request");
    }
    finish(reply.status, header.request_id, service::SolverKind::kMatch,
           arrived_at, false);
    respond(conn, reply, tl.get());
    seal_timeline(std::move(tl), reply.status, false);
    return;
  } catch (const std::exception&) {
    // Defense in depth: a decoder allocation failure (bad_alloc on a
    // hostile claimed size the bounds missed) is an answered bad
    // request, not an exception unwinding the reactor thread.
    reply.status = Status::kBadRequest;
    reply.error = "request payload could not be decoded";
    if (tl) {
      tl->stamp(obs::SpanStage::kDecode, arrived_at, Clock::now(),
                "bad_request");
    }
    finish(reply.status, header.request_id, service::SolverKind::kMatch,
           arrived_at, false);
    respond(conn, reply, tl.get());
    seal_timeline(std::move(tl), reply.status, false);
    return;
  }
  reply.response.solver = request.request.solver;

  Clock::time_point decoded_at = arrived_at;
  if (tl) {
    decoded_at = Clock::now();
    tl->stamp(obs::SpanStage::kDecode, arrived_at, decoded_at);
  }

  const auto refuse = [&](Status status, std::string error) {
    reply.status = status;
    reply.error = std::move(error);
    // Every refusal is an admission decision; the span covers decode
    // end → the decision.  When admission was already stamped
    // "admitted" (the try_submit race below lost), correct the tag
    // instead of stamping twice.
    if (tl) {
      if (tl->find(obs::SpanStage::kAdmission) == nullptr) {
        tl->stamp(obs::SpanStage::kAdmission, decoded_at, Clock::now(),
                  admission_outcome(status));
      } else {
        tl->set_outcome(obs::SpanStage::kAdmission,
                        admission_outcome(status));
      }
    }
    finish(status, request.request_id, request.request.solver, arrived_at,
           false);
    respond(conn, reply, tl.get());
    seal_timeline(std::move(tl), status, false);
  };

  // ---- Instance resolution (inline registers, fingerprint looks up). --
  if (request.by_fingerprint) {
    const auto it = instances_.find(request.instance_fingerprint);
    if (it == instances_.end()) {
      refuse(Status::kUnknownInstance,
             "no instance registered under that fingerprint; resend inline");
      return;
    }
    request.request.instance = it->second;
  } else {
    const std::uint64_t fp =
        service::fingerprint_instance(*request.request.instance);
    if (instances_.emplace(fp, request.request.instance).second) {
      instance_order_.push_back(fp);
      while (instances_.size() > config_.max_instances) {
        instances_.erase(instance_order_.front());
        instance_order_.pop_front();
      }
    }
  }

  if (!service_.registry().contains(request.request.solver)) {
    refuse(Status::kBadRequest, "no solver registered for that kind");
    return;
  }
  // Workload-kind compatibility: a TIG solver must not receive a DAG (or
  // vice versa).  Checked here — not by letting try_submit throw — so
  // the refusal is an answered kBadRequest, not a reactor exception.
  if (!service_.registry()
           .get(request.request.solver)
           .supports(request.request.instance->kind())) {
    refuse(Status::kBadRequest,
           std::string("solver does not support ") +
               workload::workload_kind_name(
                   request.request.instance->kind()) +
               " workloads");
    return;
  }

  // ---- Deadline-aware early rejection. --------------------------------
  const double deadline = request.request.options.deadline_seconds;
  if (request.strict_deadline && deadline <= 0.0) {
    refuse(Status::kRejectedDeadline, "deadline expired before admission");
    return;
  }
  if (config_.admission.deadline_early_reject && deadline > 0.0) {
    const double projected = service_.projected_wait_seconds();
    metrics_.histogram("net.projected_wait_seconds").observe(projected);
    if (projected >= deadline) {
      refuse(Status::kRejectedDeadline,
             "projected queue wait exceeds the deadline");
      return;
    }
  }

  // ---- Load shedding: bounded pending set, low priority first. --------
  if (pending_ >= shed_threshold(request.priority)) {
    refuse(Status::kShed, "over the admission watermark for this priority");
    return;
  }

  const std::uint64_t conn_id = conn.id;
  // Admission must be stamped BEFORE try_submit: on success the worker
  // owns the timeline and the reactor may not touch it until the
  // completion crosses back through the outbox.  (On failure the
  // service destroys the Pending — and with it the callback's copy of
  // the shared_ptr — without ever running it, so `refuse` correcting
  // the tag above is safe.)
  if (tl) {
    tl->stamp(obs::SpanStage::kAdmission, decoded_at, Clock::now(),
              "admitted");
    request.request.timeline = tl.get();
  }
  const bool admitted = service_.try_submit(
      std::move(request.request),
      [this, conn_id, arrived_at, tl](service::MapResponse&& response) {
        Completed done;
        done.conn_id = conn_id;
        done.arrived_at = arrived_at;
        done.timeline = tl;
        done.response.request_id = response.id;
        done.response.status = Status::kOk;  // re-derived on the reactor
        done.response.response = std::move(response);
        {
          std::lock_guard<std::mutex> lock(outbox_mutex_);
          outbox_.push_back(std::move(done));
        }
        wakeup_.notify();
      });
  if (!admitted) {
    refuse(Status::kShed, "service queue full");
    return;
  }
  ++pending_;
  ++conn.inflight;
}

void MatchServer::drain_outbox(bool deliver) {
  std::vector<Completed> batch;
  {
    std::lock_guard<std::mutex> lock(outbox_mutex_);
    batch.swap(outbox_);
  }
  for (Completed& done : batch) {
    if (pending_ > 0) --pending_;
    // A solve that failed after admission comes back with an empty
    // mapping (MappingService callback contract): classify, then count.
    WireResponse& reply = done.response;
    if (reply.response.mapping.num_tasks() == 0) {
      reply.status = Status::kServerError;
      reply.error = "solver failed after admission";
    }
    // Book the decision first — by the time the client holds its
    // answer the counters must already tell the story — then deliver,
    // then seal the timeline so the encode/write_flush spans are on it.
    finish(reply.status, reply.request_id, reply.response.solver,
           done.arrived_at, reply.response.deadline_missed);
    if (deliver) {
      const auto fd_it = conn_fd_.find(done.conn_id);
      if (fd_it != conn_fd_.end()) {  // else: client already went away
        const int fd = fd_it->second;
        const auto conn_it = conns_.find(fd);
        if (conn_it != conns_.end()) {
          Connection& conn = conn_it->second;
          if (conn.inflight > 0) --conn.inflight;
          // May close on a write failure — `conn` is dead afterwards.
          respond(conn, reply, done.timeline.get());
          maybe_close_half_closed(fd);
        }
      }
    }
    seal_timeline(std::move(done.timeline), reply.status,
                  reply.response.deadline_missed);
  }
}

void MatchServer::respond(Connection& conn, const WireResponse& response,
                          obs::SpanTimeline* timeline) {
  if (timeline == nullptr) {
    conn.out += encode_response(response);
    if (conn.out.size() - conn.out_written > config_.max_write_buffer) {
      close_connection(conn, "net.slow_client_closed");
      return;
    }
    flush_writes(conn);
    return;
  }

  const Clock::time_point encode_start = Clock::now();
  conn.out += encode_response(response);
  const Clock::time_point encode_end = Clock::now();
  timeline->stamp(obs::SpanStage::kEncode, encode_start, encode_end);
  if (conn.out.size() - conn.out_written > config_.max_write_buffer) {
    close_connection(conn, "net.slow_client_closed");  // kills `conn`
    timeline->stamp(obs::SpanStage::kWriteFlush, encode_end, encode_end,
                    "slow_client_closed");
    return;
  }
  const bool alive = flush_writes(conn);  // false: `conn` is dead
  const Clock::time_point flush_end = Clock::now();
  const char* outcome = "flushed";
  if (!alive) {
    outcome = "connection_closed";
  } else if (conn.out_written < conn.out.size()) {
    outcome = "partial";  // EAGAIN: the rest goes out on writability
  }
  timeline->stamp(obs::SpanStage::kWriteFlush, encode_end, flush_end,
                  outcome);
}

bool MatchServer::flush_writes(Connection& conn) {
  while (conn.out_written < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_written,
               conn.out.size() - conn.out_written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn.want_write) {
          conn.want_write = true;
          loop_.modify(conn.fd, !conn.read_closed, /*want_write=*/true);
        }
        return true;
      }
      close_connection(conn, "net.connections_closed");
      return false;
    }
    conn.out_written += static_cast<std::size_t>(n);
  }
  conn.out.clear();
  conn.out_written = 0;
  conn.last_activity = Clock::now();
  if (conn.want_write) {
    conn.want_write = false;
    loop_.modify(conn.fd, !conn.read_closed, /*want_write=*/false);
  }
  return true;
}

void MatchServer::sweep_idle() {
  if (config_.idle_timeout_seconds <= 0.0) return;
  const Clock::time_point now = Clock::now();
  std::vector<int> stale;
  for (const auto& [fd, conn] : conns_) {
    // A connection waiting on an admitted solve is not idle: closing
    // it would silently drop the response the client is quietly
    // waiting for.  (The half-close path waits for inflight == 0 for
    // the same reason; completion delivery refreshes last_activity.)
    if (conn.inflight > 0) continue;
    if (seconds_between(conn.last_activity, now) >
        config_.idle_timeout_seconds) {
      stale.push_back(fd);
    }
  }
  for (int fd : stale) {
    const auto it = conns_.find(fd);
    if (it != conns_.end()) close_connection(it->second, "net.idle_closed");
  }
}

// ---- HTTP routes ------------------------------------------------------

namespace {

std::string make_http_response(int status, const char* content_type,
                               std::string_view body, bool head_only) {
  const char* reason = status == 200   ? "OK"
                       : status == 400 ? "Bad Request"
                       : status == 404 ? "Not Found"
                       : status == 405 ? "Method Not Allowed"
                                       : "Internal Server Error";
  std::string out;
  out.reserve(body.size() + 128);
  out += "HTTP/1.1 ";
  out += std::to_string(status);
  out.push_back(' ');
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  if (!head_only) out += body;
  return out;
}

}  // namespace

HttpHead parse_http_head(std::string_view head) noexcept {
  HttpHead parsed;
  const std::string_view line = head.substr(0, head.find("\r\n"));
  const std::size_t method_end = line.find(' ');
  if (method_end == std::string_view::npos) return parsed;  // 400
  const std::string_view method = line.substr(0, method_end);
  std::string_view target = line.substr(method_end + 1);
  target = target.substr(0, target.find(' '));
  target = target.substr(0, target.find('?'));
  if (method != "GET" && method != "HEAD") {
    parsed.status = 405;
    return parsed;
  }
  parsed.head_only = method == "HEAD";
  parsed.status = 200;
  if (target == "/metrics") {
    parsed.route = HttpRoute::kMetrics;
  } else if (target == "/healthz") {
    parsed.route = HttpRoute::kHealthz;
  } else if (target == "/debug/requests") {
    parsed.route = HttpRoute::kDebugRequests;
  } else {
    parsed.status = 404;
  }
  return parsed;
}

bool MatchServer::handle_http(Connection& conn, bool eof) {
  const std::size_t end = conn.in.find("\r\n\r\n");
  const std::size_t head_bytes =
      end == std::string::npos ? conn.in.size() : end + 4;
  if (end == std::string::npos && !eof && head_bytes <= kMaxHttpHead) {
    return true;  // wait for the rest of the head
  }
  const HttpHead head =
      head_bytes > kMaxHttpHead
          ? HttpHead{}
          : parse_http_head(std::string_view(conn.in).substr(0, end));
  // Booked before the bytes are queued: a client that has read its
  // answer already sees itself counted.
  metrics_.counter("net.http_requests").add();
  conn.out += http_response(head);
  conn.in.clear();
  // One request per connection: stop reading, and let the half-close
  // path close the connection once the response is flushed.
  conn.read_closed = true;
  loop_.modify(conn.fd, /*want_read=*/false, conn.want_write);
  if (conn.out.size() - conn.out_written > config_.max_write_buffer) {
    close_connection(conn, "net.slow_client_closed");
    return false;
  }
  const int fd = conn.fd;
  if (!flush_writes(conn)) return false;
  maybe_close_half_closed(fd);
  return conns_.find(fd) != conns_.end();
}

std::string MatchServer::http_response(const HttpHead& head) const {
  const char* const plain = "text/plain";
  if (head.status == 400) {
    return make_http_response(400, plain, "bad request\n", head.head_only);
  }
  if (head.status == 405) {
    return make_http_response(405, plain, "only GET and HEAD are served\n",
                              head.head_only);
  }
  try {
    switch (head.route) {
      case HttpRoute::kMetrics:
        return make_http_response(200, "text/plain; version=0.0.4",
                                  obs::to_prometheus(metrics_.snapshot()),
                                  head.head_only);
      case HttpRoute::kHealthz:
        return make_http_response(200, plain, "ok\n", head.head_only);
      case HttpRoute::kDebugRequests:
        if (config_.recorder == nullptr) break;
        return make_http_response(
            200, "application/json",
            obs::render_debug_requests(*config_.recorder), head.head_only);
      case HttpRoute::kNone:
        break;
    }
  } catch (...) {
    return make_http_response(500, plain, "render failed\n", head.head_only);
  }
  return make_http_response(404, plain, "try /metrics or /healthz\n",
                            head.head_only);
}

}  // namespace match::net
