// The HTTP routes of the network front end: /metrics, /healthz and
// /debug/requests served by MatchServer's reactor from its optional
// HTTP listener, over real loopback sockets — plus the pure request-head
// parser (`parse_http_head`) under a fixed-seed mutation fuzz run that
// ASan builds check for reads past the head.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fuzz_mutate.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket_util.hpp"
#include "obs/spans.hpp"
#include "rng/rng.hpp"
#include "service/service.hpp"
#include "workload/paper_suite.hpp"

namespace {

using namespace match;
using namespace match::net;

ServerConfig http_config(std::uint16_t http_port = 0,
                         obs::FlightRecorder* recorder = nullptr) {
  ServerConfig config;
  config.http_port = http_port;
  config.recorder = recorder;
  return config;
}

struct Stack {
  explicit Stack(ServerConfig config = http_config())
      : server(service, std::move(config)) {}
  service::MappingService service;
  MatchServer server;

  std::uint64_t http_requests() const {
    return service.metrics().counter_value("net.http_requests");
  }
  bool books_balance() const {
    const ServerCounters c = server.counters();
    return c.requests == c.terminal();
  }
};

std::string read_to_eof(int& fd) {
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  close_fd(fd);
  return response;
}

/// Sends `request_text` on a fresh connection and reads until the
/// server closes it.  Throws when nothing listens on `port`.
std::string http_exchange(std::uint16_t port, std::string_view request_text) {
  int fd = connect_to("127.0.0.1", port);
  send_all(fd, request_text.data(), request_text.size());
  return read_to_eof(fd);
}

std::string get_path(std::uint16_t port, const std::string& path,
                     const std::string& method = "GET") {
  return http_exchange(port, method + " " + path +
                                 " HTTP/1.1\r\nHost: localhost\r\n"
                                 "Connection: close\r\n\r\n");
}

bool has(const std::string& text, std::string_view needle) {
  return text.find(needle) != std::string::npos;
}

/// The bytes after the blank line.
std::string body_of(const std::string& response) {
  const std::size_t end = response.find("\r\n\r\n");
  return end == std::string::npos ? std::string() : response.substr(end + 4);
}

/// The Content-Length header's value, or -1 when absent.
long content_length(const std::string& response) {
  const std::string key = "Content-Length: ";
  const std::size_t at = response.find(key);
  if (at == std::string::npos) return -1;
  return std::strtol(response.c_str() + at + key.size(), nullptr, 10);
}

WireRequest inline_request(std::uint64_t id) {
  rng::Rng rng(1);
  workload::PaperParams params;
  params.n = 8;
  WireRequest req;
  req.request_id = id;
  req.request.id = id;
  req.request.instance = std::make_shared<const workload::AnyInstance>(
      workload::make_paper_instance(params, rng));
  req.request.solver = service::SolverKind::kMinMin;
  return req;
}

// ------------------------------------------------------------- routes

TEST(NetHttp, ServesMetricsAndHealthOnEphemeralPort) {
  Stack stack;
  stack.service.metrics().counter("scrape.me").add(3);
  const std::uint16_t port = stack.server.http_port();
  ASSERT_GT(port, 0);
  EXPECT_NE(port, stack.server.port());

  const std::string metrics = get_path(port, "/metrics");
  EXPECT_TRUE(has(metrics, "HTTP/1.1 200 OK")) << metrics;
  EXPECT_TRUE(has(metrics, "text/plain; version=0.0.4"));
  EXPECT_TRUE(has(metrics, "scrape_me 3\n"));
  EXPECT_EQ(body_of(get_path(port, "/healthz")), "ok\n");
  // Query strings are ignored on routing.
  EXPECT_TRUE(has(get_path(port, "/metrics?x=1"), "HTTP/1.1 200 OK"));
  EXPECT_EQ(stack.http_requests(), 3u);

  // Without an http_port the server opens no HTTP listener.
  service::MappingService service;
  EXPECT_EQ(MatchServer(service).http_port(), 0);
}

TEST(NetHttp, RoutesErrorsWithoutDying) {
  Stack stack;
  const std::uint16_t port = stack.server.http_port();
  EXPECT_TRUE(has(get_path(port, "/nope"), "HTTP/1.1 404"));
  EXPECT_TRUE(has(get_path(port, "/metrics", "POST"), "HTTP/1.1 405"));
  EXPECT_TRUE(has(http_exchange(port, "garbage\r\n\r\n"), "HTTP/1.1 400"));
  // A head that never ends within 16 KiB is a 400, not a wait.
  EXPECT_TRUE(has(http_exchange(port, std::string(16 * 1024 + 1, 'a')),
                  "HTTP/1.1 400"));
  EXPECT_TRUE(has(get_path(port, "/healthz"), "200 OK"));
}

TEST(NetHttp, HeadReturnsHeadersOnly) {
  Stack stack;
  const std::string head =
      get_path(stack.server.http_port(), "/healthz", "HEAD");
  EXPECT_TRUE(has(head, "HTTP/1.1 200 OK"));
  EXPECT_EQ(content_length(head), 3);  // the GET body, "ok\n"
  EXPECT_TRUE(body_of(head).empty());
  const std::string metrics =
      get_path(stack.server.http_port(), "/metrics", "HEAD");
  EXPECT_GT(content_length(metrics), 0);
  EXPECT_TRUE(body_of(metrics).empty());
}

// Every response — including /healthz and errors — must carry an
// explicit Content-Type, an exact Content-Length, and Connection: close,
// or a scraper that honors keep-alive by default hangs until timeout.
TEST(NetHttp, EveryResponseCarriesExplicitFramingHeaders) {
  obs::FlightRecorder recorder;
  Stack stack(http_config(0, &recorder));
  const struct {
    const char* request;
    const char* content_type;
  } expectations[] = {
      {"GET /metrics HTTP/1.1\r\n\r\n", "text/plain; version=0.0.4\r\n"},
      {"GET /healthz HTTP/1.1\r\n\r\n", "text/plain\r\n"},
      {"GET /debug/requests HTTP/1.1\r\n\r\n", "application/json\r\n"},
      {"GET /nope HTTP/1.1\r\n\r\n", "text/plain\r\n"},
      {"PUT /metrics HTTP/1.1\r\n\r\n", "text/plain\r\n"},
      {"garbage\r\n\r\n", "text/plain\r\n"},
  };
  for (const auto& e : expectations) {
    const std::string response =
        http_exchange(stack.server.http_port(), e.request);
    EXPECT_TRUE(has(response, std::string("Content-Type: ") + e.content_type))
        << e.request;
    EXPECT_TRUE(has(response, "Connection: close\r\n")) << e.request;
    EXPECT_EQ(content_length(response),
              static_cast<long>(body_of(response).size()))
        << e.request;
  }
}

TEST(NetHttp, DebugRequestsRouteServesTheFlightRecorder) {
  obs::FlightRecorder recorder;
  obs::SpanTimeline tl;
  tl.start(7, obs::SpanClock::time_point{});
  tl.stamp_seconds(obs::SpanStage::kSolve, 0.0, 0.003, "match");
  tl.outcome = "net.served";
  tl.total_seconds = 0.004;
  recorder.record(std::move(tl));

  Stack stack(http_config(0, &recorder));
  const std::string response =
      get_path(stack.server.http_port(), "/debug/requests");
  EXPECT_TRUE(has(response, "HTTP/1.1 200 OK"));
  EXPECT_TRUE(has(response, "Content-Type: application/json"));
  EXPECT_TRUE(has(response, "\"recorded\":1"));
  EXPECT_TRUE(has(response, "\"request\":7"));
  EXPECT_TRUE(has(response, "\"stage\":\"solve\""));

  // No recorder, no route.
  Stack bare;
  EXPECT_TRUE(has(get_path(bare.server.http_port(), "/debug/requests"),
                  "HTTP/1.1 404"));
}

// ---------------------------------------------------------- lifecycle

TEST(NetHttp, PortInUseThrowsInsteadOfServingNothing) {
  Stack first;
  service::MappingService service;
  EXPECT_THROW(MatchServer(service, http_config(first.server.http_port())),
               std::runtime_error);
}

TEST(NetHttp, StopIsIdempotentAndFreesThePort) {
  auto first = std::make_unique<Stack>();
  const std::uint16_t port = first->server.http_port();
  first->server.stop();
  first->server.stop();  // second stop is a no-op
  EXPECT_THROW(get_path(port, "/healthz"), std::runtime_error);
  first.reset();

  Stack second(http_config(port));
  EXPECT_TRUE(has(get_path(port, "/healthz"), "ok\n"));
}

// Served scrapes leave sockets in TIME_WAIT on the port, which is
// exactly the case SO_REUSEADDR exists for (a never-used listener
// rebinds even without it).
TEST(NetHttp, RestartOnSamePortAfterServingScrapes) {
  auto first = std::make_unique<Stack>();
  const std::uint16_t port = first->server.http_port();
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(has(get_path(port, "/metrics"), "200 OK"));
  }
  first.reset();  // stop + close while scrape sockets linger in TIME_WAIT

  std::unique_ptr<Stack> second;
  ASSERT_NO_THROW(second = std::make_unique<Stack>(http_config(port)));
  EXPECT_EQ(second->server.http_port(), port);
  EXPECT_TRUE(has(get_path(port, "/healthz"), "ok\n"));
}

// -------------------------------------------------------- accounting

TEST(NetHttp, HttpTrafficLeavesTheAdmissionBooksBalanced) {
  Stack stack;
  Client client("127.0.0.1", stack.server.port());
  ASSERT_EQ(client.call(inline_request(1)).status, Status::kOk);
  const ServerCounters before = stack.server.counters();

  const std::uint16_t port = stack.server.http_port();
  for (const char* path : {"/metrics", "/healthz", "/debug/requests", "/x"}) {
    get_path(port, path);
  }
  get_path(port, "/metrics", "DELETE");
  http_exchange(port, "garbage\r\n\r\n");

  const ServerCounters after = stack.server.counters();
  EXPECT_EQ(after.requests, before.requests);
  EXPECT_EQ(after.terminal(), before.terminal());
  EXPECT_EQ(stack.http_requests(), 6u);
  EXPECT_TRUE(stack.books_balance());
}

// A client that has read its whole response (the server closed the
// connection) must already see itself counted.  Looped, because a
// counter booked after the close passes once and fails under load.
TEST(NetHttp, CounterIsBookedBeforeTheResponse) {
  Stack stack;
  for (std::uint64_t i = 1; i <= 200; ++i) {
    ASSERT_TRUE(has(get_path(stack.server.http_port(), "/healthz"), "ok\n"));
    ASSERT_EQ(stack.http_requests(), i);
  }
}

// One scraper sends half a request head and stalls.  The reactor keeps
// its partial head in a buffer and serves everyone else meanwhile.
TEST(NetHttp, StalledClientBlocksNoOne) {
  Stack stack;
  int stalled = connect_to("127.0.0.1", stack.server.http_port());
  ASSERT_TRUE(send_all(stalled, "GET /metr", 9));

  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(has(get_path(stack.server.http_port(), "/healthz"), "ok\n"));
  Client client("127.0.0.1", stack.server.port());
  EXPECT_EQ(client.call(inline_request(2)).status, Status::kOk);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start).count(),
            1.0);

  // The stalled client still gets its answer once the head completes.
  const std::string rest = "ics HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(send_all(stalled, rest.data(), rest.size()));
  EXPECT_TRUE(has(read_to_eof(stalled), "HTTP/1.1 200 OK"));
  EXPECT_TRUE(stack.books_balance());
}

// ------------------------------------------------------ parse_http_head

std::string mutate(std::string input, rng::Rng& rng) {
  static constexpr std::string_view kTokens[] = {
      "GET", "HEAD", "POST", " ", "\r\n", "\r", "\n", "?", "/",
      "/metrics", "/healthz", "/debug/requests", "HTTP/1.1", "%00"};
  return fuzz::mutate(std::move(input), rng, kTokens);
}

// The checked-in corpus: the three route heads and malformed ones, each
// with the answer it gets unmutated.  The fuzz run mutates all of them.
TEST(HttpHeadFuzz, MutatedHeadsEndIn200400404Or405) {
  using R = HttpRoute;
  const struct {
    std::string head;
    int status;
    HttpRoute route;
    bool head_only;
  } corpus[] = {
      {"GET /metrics HTTP/1.1\r\nHost: x\r\nAccept: */*", 200, R::kMetrics,
       false},
      {"HEAD /healthz HTTP/1.1\r\nHost: x", 200, R::kHealthz, true},
      {"GET /debug/requests?n=5 HTTP/1.0\r\nConnection: close", 200,
       R::kDebugRequests, false},
      {"GET /metrics", 200, R::kMetrics, false},
      {"GET /metrics?", 200, R::kMetrics, false},
      {"GET /metrics HTTP/1.1\r\n\r\n", 200, R::kMetrics, false},
      {"GET /nope HTTP/1.1", 404, R::kNone, false},
      {"HEAD /nope HTTP/1.1", 404, R::kNone, true},
      {"GET  /metrics HTTP/1.1", 404, R::kNone, false},
      {"GET ?", 404, R::kNone, false},
      {"GET /metrics\r", 404, R::kNone, false},
      {"GET /debug/requests/ HTTP/1.1", 404, R::kNone, false},
      {std::string("GET /met\0rics HTTP/1.1", 22), 404, R::kNone, false},
      {"GET /" + std::string(2000, 'a') + " HTTP/1.1", 404, R::kNone, false},
      {"POST /metrics HTTP/1.1\r\nContent-Length: 5", 405, R::kNone, false},
      {"get /healthz HTTP/1.1", 405, R::kNone, false},
      {"GET/metrics HTTP/1.1", 405, R::kNone, false},
      {" GET /metrics HTTP/1.1", 405, R::kNone, false},
      {std::string(300, ' '), 405, R::kNone, false},
      {"", 400, R::kNone, false},
      {"GET", 400, R::kNone, false},
      {"garbage", 400, R::kNone, false},
      {"\r\nGET /metrics HTTP/1.1", 400, R::kNone, false},
      {"GET\r\n/metrics HTTP/1.1", 400, R::kNone, false},
      {std::string("\xff\xfe\0GET/healthz", 14), 400, R::kNone, false},
  };
  for (const auto& c : corpus) {
    const HttpHead parsed = parse_http_head(c.head);
    EXPECT_EQ(parsed.status, c.status) << c.head;
    EXPECT_EQ(parsed.route, c.route) << c.head;
    EXPECT_EQ(parsed.head_only, c.head_only) << c.head;
  }

  rng::Rng rng(20261019);
  std::vector<int> statuses;
  for (std::size_t i = 0; i < 10000; ++i) {
    const std::string input = mutate(corpus[i % std::size(corpus)].head, rng);
    // An exactly sized heap copy: a read past the head is a heap
    // overflow under ASan, not a read of std::string's spare capacity.
    const std::unique_ptr<char[]> exact(new char[input.size()]);
    std::copy(input.begin(), input.end(), exact.get());
    const HttpHead parsed =
        parse_http_head(std::string_view(exact.get(), input.size()));
    EXPECT_TRUE(parsed.status == 200 || parsed.status == 400 ||
                parsed.status == 404 || parsed.status == 405)
        << "case " << i << " ended in " << parsed.status;
    EXPECT_EQ(parsed.status == 200, parsed.route != HttpRoute::kNone) << i;
    statuses.push_back(parsed.status);
  }
  // The mutations reach every outcome.
  for (const int status : {200, 400, 404, 405}) {
    EXPECT_NE(std::count(statuses.begin(), statuses.end(), status), 0)
        << status;
  }
}

}  // namespace
