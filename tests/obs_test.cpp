// Tests of the obs subsystem (src/obs/): metric exactness under
// concurrent writers, JSONL round-tripping, sink semantics, and the
// pure-observer contract — attaching telemetry to a solver must not
// change what the solver computes.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "core/ce_driver.hpp"
#include "core/matchalgo.hpp"
#include "core/solver_context.hpp"
#include "net/server.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/scoped_timer.hpp"
#include "rng/rng.hpp"
#include "service/service.hpp"
#include "sim/evaluator.hpp"
#include "sim/platform.hpp"
#include "workload/paper_suite.hpp"

namespace match::obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(Counter, ExactUnderConcurrentWriters) {
  MetricsRegistry registry;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 100000;

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter& c = registry.counter("test.hits");
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(registry.counter("test.hits").value(), kThreads * kAddsPerThread);
  EXPECT_EQ(registry.counter_value("test.hits"), kThreads * kAddsPerThread);
}

TEST(Histogram, ExactCountAndSumUnderConcurrentWriters) {
  MetricsRegistry registry;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kObsPerThread = 50000;
  // A power of two: repeated addition stays exact in binary floating
  // point, so the CAS-accumulated sum must come out exact too.
  constexpr double kValue = 0.0009765625;  // 2^-10

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Histogram& h = registry.histogram("test.latency_seconds");
      for (std::uint64_t i = 0; i < kObsPerThread; ++i) h.observe(kValue);
    });
  }
  for (auto& t : threads) t.join();

  const Histogram& h = registry.histogram("test.latency_seconds");
  EXPECT_EQ(h.count(), kThreads * kObsPerThread);
  EXPECT_DOUBLE_EQ(h.sum(),
                   static_cast<double>(kThreads * kObsPerThread) * kValue);
}

TEST(MetricsRegistry, ReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.counter("same.name");
  Counter& b = registry.counter("same.name");
  EXPECT_EQ(&a, &b);
  Histogram& ha = registry.histogram("same.name");  // distinct metric space
  Histogram& hb = registry.histogram("same.name");
  EXPECT_EQ(&ha, &hb);
  EXPECT_NE(static_cast<void*>(&a), static_cast<void*>(&ha));
}

TEST(MetricsRegistry, AbsentCounterReadsZeroWithoutCreating) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.counter_value("never.touched"), 0u);
  EXPECT_TRUE(registry.snapshot().counters.empty());
}

TEST(Gauge, RoundTripsDoubles) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("test.gamma");
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(-3.25);
  EXPECT_DOUBLE_EQ(g.value(), -3.25);
  g.set(1e-300);
  EXPECT_DOUBLE_EQ(g.value(), 1e-300);
}

TEST(Histogram, QuantilesReportBucketUpperBounds) {
  Histogram h;
  // 90 fast observations, 10 slow ones: p50 lands in the fast bucket,
  // p99 in the slow one.  Values sit strictly inside their buckets.
  for (int i = 0; i < 90; ++i) h.observe(3e-6);   // bucket (2e-6, 4e-6]
  for (int i = 0; i < 10; ++i) h.observe(1.5e-3);  // bucket (1.024e-3, 2.048e-3]
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 4e-6);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), Histogram::bucket_upper(11));
  const HistogramStats stats = h.stats();
  EXPECT_EQ(stats.count, 100u);
  EXPECT_DOUBLE_EQ(stats.p50, 4e-6);
  EXPECT_NEAR(stats.mean, (90 * 3e-6 + 10 * 1.5e-3) / 100.0, 1e-12);
}

TEST(Histogram, EmptyAndExtremeObservations) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  h.observe(0.0);                  // ≤ 1µs → bucket 0
  h.observe(-1.0);                 // negative → bucket 0, not UB
  h.observe(1e9);                  // beyond the top bucket → +inf catch-all
  EXPECT_EQ(h.count(), 3u);
  EXPECT_TRUE(std::isinf(h.quantile(1.0)));
}

TEST(MetricsRegistry, SnapshotCopiesEverything) {
  MetricsRegistry registry;
  registry.counter("c.one").add(5);
  registry.gauge("g.one").set(2.5);
  registry.histogram("h.one").observe(1e-4);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("c.one"), 5u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g.one"), 2.5);
  EXPECT_EQ(snap.histograms.at("h.one").count, 1u);
}

// ----------------------------------------------------------------- events

Event make_iteration_event() {
  // Awkward doubles on purpose: non-terminating binary expansions,
  // subnormal-adjacent magnitudes, negative zero.
  return Event::iteration_event(/*run_id=*/71, "match", /*iteration=*/12,
                                /*gamma=*/1.0 / 3.0, /*iter_best=*/0.1,
                                /*best_so_far=*/1e-300,
                                /*elite_spread=*/-0.0,
                                /*row_max_mean=*/0.9999999999999999,
                                /*entropy=*/5.321928094887363,
                                /*elite_count=*/17);
}

TEST(Jsonl, RoundTripsEveryKindExactly) {
  const std::vector<Event> events = {
      Event::run_start(1, "ce"),
      make_iteration_event(),
      Event::phase_event(2, "match", 3, "draw", 1.0 / 7.0),
      Event::service_event(4, "fastmap-ga", "cache_hit", 2.5e-5),
      Event::fallback_draw(5, "hill_climb"),
      Event::run_end(6, "island", 40, 123.456, 0.75),
  };
  for (const Event& e : events) {
    const Event back = from_jsonl(to_jsonl(e));
    EXPECT_EQ(e, back) << to_jsonl(e);
  }
}

TEST(Jsonl, EscapesHostileStrings) {
  Event e = Event::service_event(1, "so\"lv\\er\n", "tab\there");
  const Event back = from_jsonl(to_jsonl(e));
  EXPECT_EQ(e, back);
}

TEST(Jsonl, ParserRejectsGarbageAndIgnoresUnknownKeys) {
  EXPECT_THROW(from_jsonl("not json"), std::invalid_argument);
  EXPECT_THROW(from_jsonl("{}"), std::invalid_argument);  // no kind
  EXPECT_THROW(from_jsonl("{\"kind\":\"nope\"}"), std::invalid_argument);
  // Unknown keys are skipped (schema growth).
  const Event e =
      from_jsonl("{\"kind\":\"run_start\",\"run\":9,\"future_key\":1.5}");
  EXPECT_EQ(e.kind, EventKind::kRunStart);
  EXPECT_EQ(e.run_id, 9u);
}

TEST(JsonlSink, WritesReadableTrace) {
  std::stringstream stream;
  JsonlSink sink(stream);
  const Event a = make_iteration_event();
  const Event b = Event::run_end(71, "match", 13, 0.5, 0.01);
  sink.emit(a);
  sink.emit(b);
  EXPECT_EQ(sink.emitted(), 2u);

  stream << "\n";  // blank line must be skipped
  const std::vector<Event> back = read_jsonl(stream);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], a);
  EXPECT_EQ(back[1], b);
}

/// Counts `sync()` calls so a test can observe exactly when a stream
/// gets flushed (an ofstream's buffer size would make that timing-
/// dependent; a counting streambuf makes it deterministic).
class SyncCountingBuf : public std::stringbuf {
 public:
  int syncs = 0;

 protected:
  int sync() override {
    ++syncs;
    return std::stringbuf::sync();
  }
};

TEST(JsonlSink, HotPathNeverFlushesButExplicitFlushDoes) {
  SyncCountingBuf buf;
  std::ostream os(&buf);
  JsonlSink sink(os);
  sink.emit(make_iteration_event());
  sink.emit(Event::run_end(71, "match", 13, 0.5, 0.01));
  // One flush per event would dominate tracing cost; emit must not sync.
  EXPECT_EQ(buf.syncs, 0);
  sink.flush();
  EXPECT_EQ(buf.syncs, 1);
  sink.flush();  // checkpoint flushes are repeatable
  EXPECT_EQ(buf.syncs, 2);
}

TEST(JsonlSink, DestructorFlushesSoShortLivedTracesSurvive) {
  SyncCountingBuf buf;
  {
    std::ostream os(&buf);
    JsonlSink sink(os);
    sink.emit(Event::run_start(1, "match"));
    EXPECT_EQ(buf.syncs, 0);
  }  // sink destroyed here — the trace's last line must be pushed out
  EXPECT_GE(buf.syncs, 1);
  // And the buffered content is intact after the sink is gone.
  const Event back = from_jsonl(buf.str().substr(0, buf.str().find('\n')));
  EXPECT_EQ(back.kind, EventKind::kRunStart);
}

TEST(RingBufferSink, KeepsNewestEventsOldestFirst) {
  RingBufferSink ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.emit(Event::run_start(i, "x"));
  }
  EXPECT_EQ(ring.total(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const std::vector<Event> snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(snap[i].run_id, 6 + i);
  }
}

TEST(TeeSink, DuplicatesToBothSinks) {
  RingBufferSink a(8), b(8);
  TeeSink tee(&a, &b);
  tee.emit(Event::run_start(1, "x"));
  EXPECT_EQ(a.total(), 1u);
  EXPECT_EQ(b.total(), 1u);
  TeeSink half(nullptr, &b);  // null side is allowed
  half.emit(Event::run_start(2, "x"));
  EXPECT_EQ(b.total(), 2u);
}

TEST(ScopedTimer, RecordsIntoHistogramAndSink) {
  Histogram h;
  RingBufferSink ring(4);
  Event proto = Event::phase_event(3, "match", 0, "draw", 0.0);
  double elapsed = -1.0;
  {
    ScopedTimer timer(&h, &ring, proto);
    elapsed = timer.stop();
    timer.stop();  // idempotent: second stop records nothing new
  }
  EXPECT_GE(elapsed, 0.0);
  EXPECT_EQ(h.count(), 1u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].phase, "draw");
  EXPECT_DOUBLE_EQ(snap[0].seconds, elapsed);
}

// --------------------------------------------- the pure-observer contract

/// Minimize |x - 7| over 4-bit integers: the ce_driver test problem,
/// small enough that a traced-vs-untraced comparison runs in microseconds.
class BitIntegerProblem {
 public:
  static constexpr core::EliteRule kElite = core::EliteRule::kQuantile;
  static constexpr core::StallRule kStall = core::StallRule::kNoGain;

  std::size_t sample_length() const { return 4; }

  void draw(std::span<graph::NodeId> s, rng::Rng& rng) const {
    for (int i = 0; i < 4; ++i) s[i] = rng.bernoulli(p_[i]) ? 1 : 0;
  }

  double cost(std::span<const graph::NodeId> s) const {
    int v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<int>(s[i]) << i;
    return std::abs(v - 7);
  }

  void update(const sim::SampleBlock& block, std::span<const std::size_t> elite,
              double zeta) {
    for (int i = 0; i < 4; ++i) {
      double freq = 0.0;
      for (const std::size_t lane : elite) freq += block.task_row(i)[lane];
      p_[i] = zeta * (freq / static_cast<double>(elite.size())) +
              (1.0 - zeta) * p_[i];
    }
  }

  bool degenerate(double eps) const {
    for (double p : p_) {
      if (p > eps && p < 1.0 - eps) return false;
    }
    return true;
  }

 private:
  std::vector<double> p_ = std::vector<double>(4, 0.5);
};

TEST(PureObserver, TracedRunCeIsByteIdenticalToUntraced) {
  core::CeDriverParams params;
  params.sample_size = 32;

  BitIntegerProblem plain_problem;
  rng::Rng plain_rng(42);
  const auto plain =
      core::run_ce(plain_problem, params, match::SolverContext(plain_rng));

  BitIntegerProblem traced_problem;
  rng::Rng traced_rng(42);
  RingBufferSink ring(4096);
  MetricsRegistry metrics;
  match::SolverContext ctx(traced_rng);
  ctx.with_sink(&ring).with_metrics(&metrics).with_run_id(9);
  const auto traced = core::run_ce(traced_problem, params, ctx);

  EXPECT_EQ(plain.best, traced.best);
  EXPECT_EQ(plain.best_cost, traced.best_cost);  // exact, not approximate
  EXPECT_EQ(plain.iterations, traced.iterations);
  ASSERT_EQ(plain.history.size(), traced.history.size());
  for (std::size_t i = 0; i < plain.history.size(); ++i) {
    EXPECT_EQ(plain.history[i].gamma, traced.history[i].gamma);
    EXPECT_EQ(plain.history[i].best_so_far, traced.history[i].best_so_far);
  }
  EXPECT_EQ(metrics.counter_value("ce.iterations"), traced.iterations);
}

TEST(PureObserver, TracedMatchRunMatchesHistoryExactly) {
  rng::Rng setup(3);
  workload::PaperParams wp;
  wp.n = 10;
  const auto inst = workload::make_paper_instance(wp, setup);
  const auto platform = inst.make_platform();
  const sim::CostEvaluator eval(inst.tig, platform);

  core::MatchParams mp;
  mp.max_iterations = 25;

  rng::Rng plain_rng(5);
  const auto plain =
      core::MatchOptimizer(eval, mp).run(match::SolverContext(plain_rng));

  rng::Rng traced_rng(5);
  RingBufferSink ring(4096);
  MetricsRegistry metrics;
  match::SolverContext ctx(traced_rng);
  ctx.with_sink(&ring).with_metrics(&metrics).with_run_id(33);
  const auto traced = core::MatchOptimizer(eval, mp).run(ctx);

  // Identical trajectory...
  EXPECT_EQ(plain.best_mapping, traced.best_mapping);
  EXPECT_EQ(plain.best_cost, traced.best_cost);
  ASSERT_EQ(plain.history.size(), traced.history.size());

  // ...and the emitted events are a faithful transcript of it.
  std::vector<Event> iterations;
  for (const Event& e : ring.snapshot()) {
    if (e.kind == EventKind::kIteration) iterations.push_back(e);
  }
  ASSERT_EQ(iterations.size(), traced.history.size());
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    EXPECT_EQ(iterations[i].run_id, 33u);
    EXPECT_EQ(iterations[i].solver, "match");
    EXPECT_EQ(iterations[i].gamma, traced.history[i].gamma);
    EXPECT_EQ(iterations[i].iter_best, traced.history[i].iter_best);
    EXPECT_EQ(iterations[i].best_so_far, traced.history[i].best_so_far);
    EXPECT_EQ(iterations[i].row_max_mean, traced.history[i].row_max_mean);
    EXPECT_EQ(iterations[i].entropy, traced.history[i].mean_entropy);
    EXPECT_EQ(iterations[i].elite_count, traced.history[i].elite_count);
  }

  // Phase events cover each iteration's draw/cost/sort/update, and the
  // run is bracketed.
  std::size_t run_starts = 0, run_ends = 0, phases = 0;
  for (const Event& e : ring.snapshot()) {
    run_starts += e.kind == EventKind::kRunStart;
    run_ends += e.kind == EventKind::kRunEnd;
    phases += e.kind == EventKind::kPhase;
  }
  EXPECT_EQ(run_starts, 1u);
  EXPECT_EQ(run_ends, 1u);
  EXPECT_EQ(phases, 4 * traced.history.size());
  EXPECT_EQ(metrics.counter_value("match.iterations"), traced.iterations);
  EXPECT_EQ(
      metrics.snapshot().histograms.at("match.phase.draw_seconds").count,
      traced.iterations);
}

TEST(PureObserver, StopBeforeFirstBatchEmitsFallbackDraw) {
  BitIntegerProblem problem;
  core::CeDriverParams params;
  params.sample_size = 16;
  rng::Rng rng(7);
  RingBufferSink ring(64);
  MetricsRegistry metrics;
  match::SolverContext ctx(rng, [] { return true; });
  ctx.with_sink(&ring).with_metrics(&metrics);
  const auto r = core::run_ce(problem, params, ctx);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.iterations, 0u);
  std::size_t fallbacks = 0;
  for (const Event& e : ring.snapshot()) {
    fallbacks += e.kind == EventKind::kFallbackDraw;
  }
  EXPECT_EQ(fallbacks, 1u);
  EXPECT_EQ(metrics.counter_value("solver.fallback_draws"), 1u);
}

/// Minimal loopback GET for the scrape-under-load test below.
std::string scrape(std::uint16_t port, const char* path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return {};
  }
  const std::string request = std::string("GET ") + path +
                              " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  ::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(PureObserver, ScrapingAnAttachedExporterNeverPerturbsTheRun) {
  rng::Rng setup(3);
  workload::PaperParams wp;
  wp.n = 12;
  const auto inst = workload::make_paper_instance(wp, setup);
  const auto platform = inst.make_platform();
  const sim::CostEvaluator eval(inst.tig, platform);

  core::MatchParams mp;
  mp.max_iterations = 40;

  // Reference: untraced, unexported.
  rng::Rng plain_rng(5);
  const auto plain =
      core::MatchOptimizer(eval, mp).run(match::SolverContext(plain_rng));

  // Candidate: full telemetry attached — sink, metrics, and a live
  // MatchServer /metrics endpoint over the same registry, scraped as
  // fast as possible while the solver runs.
  rng::Rng traced_rng(5);
  RingBufferSink ring(8192);
  service::ServiceConfig sconfig;
  sconfig.workers = 1;
  service::MappingService service(sconfig);
  net::ServerConfig nconfig;
  nconfig.http_port = 0;
  net::MatchServer server(service, nconfig);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> scrapes{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      if (scrape(server.http_port(), "/metrics").find("200 OK") !=
          std::string::npos) {
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  match::SolverContext ctx(traced_rng);
  ctx.with_sink(&ring).with_metrics(&service.metrics()).with_run_id(12);
  const auto traced = core::MatchOptimizer(eval, mp).run(ctx);
  done.store(true, std::memory_order_relaxed);
  scraper.join();

  // One more scrape after the run: the final counters are visible.
  const std::string text = scrape(server.http_port(), "/metrics");
  EXPECT_NE(text.find("match_iterations"), std::string::npos);
  EXPECT_NE(text.find("# TYPE match_phase_draw_seconds histogram"),
            std::string::npos);
  EXPECT_GE(scrapes.load() + 1, 1u);

  // Bit-identical trajectory: the server observed, never participated.
  EXPECT_EQ(plain.best_mapping, traced.best_mapping);
  EXPECT_EQ(plain.best_cost, traced.best_cost);
  ASSERT_EQ(plain.history.size(), traced.history.size());
  for (std::size_t i = 0; i < plain.history.size(); ++i) {
    EXPECT_EQ(plain.history[i].gamma, traced.history[i].gamma);
    EXPECT_EQ(plain.history[i].best_so_far, traced.history[i].best_so_far);
  }
}

}  // namespace
}  // namespace match::obs
