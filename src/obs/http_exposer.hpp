#pragma once

// Minimal blocking HTTP/1.1 listener for metrics exposition.
//
// One accept thread serves short-lived GET connections — exactly what a
// Prometheus scraper (or `curl`) sends — with no third-party
// dependencies: POSIX sockets only.  Routes:
//
//   GET /metrics  → 200, the renderer callback's output
//                   (`text/plain; version=0.0.4`)
//   GET /healthz  → 200 `ok`
//   GET <custom>  → 200, any route registered with `add_route` (e.g.
//                   `/debug/requests` renders the span flight recorder)
//   anything else → 404 (or 405 for non-GET methods)
//
// Every response — every status, every route — carries explicit
// `Content-Type`, an exact `Content-Length`, and `Connection: close`,
// so naive HTTP clients never hang waiting for more bytes (pinned by
// tests/prometheus_test.cpp).
//
// Renderers run on the accept thread, so a scrape can never block a
// solver; the usual metrics renderer is `[&] { return
// to_prometheus(registry.snapshot()); }`, which only reads atomics.  If
// a renderer throws, the client gets a 500 and the listener keeps
// serving.  Scrapes are pure observers: they read a `MetricsSnapshot`
// and never touch solver state or RNG streams (pinned by
// tests/obs_test.cpp).
//
// Lifecycle: the constructor binds and starts listening (throwing
// `std::runtime_error` on failure, e.g. port in use); `stop()` — also
// run by the destructor — closes the listening socket and joins the
// thread.  Port 0 binds an ephemeral port; `port()` reports the actual
// one.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

namespace match::obs {

struct HttpExposerOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral, see `HttpExposer::port()`
  /// Loopback by default: metrics are an operator surface, not a
  /// public one.  Use "0.0.0.0" to scrape from another host.
  std::string bind_address = "127.0.0.1";
};

class HttpExposer {
 public:
  using Renderer = std::function<std::string()>;
  using Options = HttpExposerOptions;

  explicit HttpExposer(Renderer render_metrics, Options options = {});
  ~HttpExposer();

  HttpExposer(const HttpExposer&) = delete;
  HttpExposer& operator=(const HttpExposer&) = delete;

  /// The port actually bound (== options.port unless that was 0).
  std::uint16_t port() const { return port_; }

  /// Closes the listener and joins the accept thread.  Idempotent.
  void stop();

  /// Registers (or replaces) a GET route.  The renderer runs on the
  /// accept thread under the same try/catch-→-500 contract as
  /// `/metrics`.  Throws `std::invalid_argument` on a null renderer, a
  /// path not starting with '/', or an attempt to shadow a built-in
  /// route.  Thread-safe; callable while serving.
  void add_route(std::string path, Renderer render,
                 std::string content_type = "application/json");

  /// Connections served so far (any route, including 404s).
  std::uint64_t requests_served() const;

 private:
  struct Route {
    Renderer render;
    std::string content_type;
  };

  void serve();
  /// Reads one request from `client_fd` and renders its response.
  std::string respond(int client_fd);

  Renderer render_metrics_;
  mutable std::mutex routes_mutex_;
  std::map<std::string, Route> routes_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace match::obs
