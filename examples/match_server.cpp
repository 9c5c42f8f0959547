// Mapping-as-a-service demo: drives service::MappingService with a
// synthetic open-loop arrival trace (workload::make_poisson_arrivals) and
// audits the service's deadline accounting, then reruns the identical
// trace against the warm cache and verifies hit rate and byte-identical
// mappings.
//
// Exit status 0 iff:
//  * every response carries a valid permutation mapping;
//  * every response either met its deadline or is flagged
//    `deadline_missed` and counted in ServiceStats (no violation is
//    unaccounted);
//  * the warm-cache rerun's hit rate exceeds 50% and every cache-served
//    response is byte-identical to the first run's mapping;
//  * the traced γ sequence of one audited solver run reconstructs the
//    optimizer's `history` exactly (events are a faithful transcript).
//
// `--trace out.jsonl` additionally streams every service/solver event
// to the given file as JSON lines (obs::JsonlSink); feed it to
// `match_inspect summary` for a convergence report.
//
// `--metrics-port N` serves the service's metrics registry as
// Prometheus text exposition on `127.0.0.1:N/metrics` (plus
// `/healthz`) from the net::MatchServer reactor's HTTP listener
// (N = 0 binds an ephemeral port, printed at startup).  In audit mode a
// MatchServer over the same service (wire port ephemeral, unused)
// serves the scrapes for the life of the process — scrape it mid-run,
// or pass `--linger S` to keep it up S seconds after the audit
// finishes.
//
// `--listen PORT` switches the binary from audit mode into a network
// server: it starts the net::MatchServer reactor on 127.0.0.1:PORT
// (0 = ephemeral, printed as `listening on 127.0.0.1:<port>`) and
// serves the binary wire protocol (docs/NETWORKING.md) until SIGINT/
// SIGTERM or `--serve-seconds S` elapses; `--metrics-port` puts the
// HTTP routes on the same reactor thread.  `bench/ext_net_loadgen` is
// the matching client.  Listen mode always runs a span flight recorder
// (obs/spans.hpp): the last-N plus all-slow request timelines are
// dumpable at `/debug/requests` on the metrics port, and
// `--span-trace out.jsonl` streams every sealed timeline to a JSONL
// file for `match_inspect spans`.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/matchalgo.hpp"
#include "core/solver_context.hpp"
#include "io/table.hpp"
#include "net/server.hpp"
#include "obs/events.hpp"
#include "obs/spans.hpp"
#include "service/service.hpp"
#include "sim/evaluator.hpp"
#include "sim/platform.hpp"
#include "workload/paper_suite.hpp"
#include "workload/trace.hpp"

namespace {

using match::service::MapRequest;
using match::service::MapResponse;
using match::service::MappingService;
using match::service::ServedBy;
using match::service::ServiceStats;
using match::service::SolverKind;

struct RequestTemplate {
  std::shared_ptr<const match::workload::AnyInstance> instance;
  SolverKind solver = SolverKind::kMatch;
  match::service::SolveOptions options;
};

std::vector<RequestTemplate> make_templates(std::size_t num_instances) {
  std::vector<RequestTemplate> templates;
  for (std::size_t i = 0; i < num_instances; ++i) {
    match::rng::Rng rng(1000 + i);
    match::workload::PaperParams params;
    params.n = 8 + 2 * (i % 3);  // 8, 10, 12
    auto inst = std::make_shared<match::workload::AnyInstance>(
        match::workload::make_paper_instance(params, rng));

    for (std::uint64_t seed : {1ull, 2ull}) {
      RequestTemplate t;
      t.instance = inst;
      t.solver = SolverKind::kMatch;
      t.options.seed = seed;
      t.options.max_iterations = 30;
      t.options.deadline_seconds = 0.5;
      templates.push_back(t);

      t.solver = SolverKind::kLocalSearch;
      t.options.max_iterations = 3000;
      templates.push_back(t);
    }

    RequestTemplate list;
    list.instance = inst;
    list.solver = SolverKind::kMinMin;
    list.options.deadline_seconds = 0.25;
    templates.push_back(list);

    RequestTemplate ga;
    ga.instance = inst;
    ga.solver = SolverKind::kGa;
    ga.options.max_iterations = 25;
    ga.options.deadline_seconds = 0.5;
    templates.push_back(ga);

    // A deliberately impossible budget: exercises the deadline-miss
    // accounting path (the solver must still answer with a valid
    // best-so-far mapping).  Unique seed keeps it out of other keys.
    RequestTemplate tight;
    tight.instance = inst;
    tight.solver = SolverKind::kMatch;
    tight.options.seed = 77 + i;
    tight.options.deadline_seconds = 1e-5;
    templates.push_back(tight);
  }
  return templates;
}

struct RunOutcome {
  std::vector<std::size_t> template_of;  ///< request index -> template id
  std::vector<MapResponse> responses;
  ServiceStats stats_after;
};

RunOutcome run_trace(MappingService& service,
                     const std::vector<RequestTemplate>& templates,
                     std::size_t count, double rate, bool open_loop) {
  match::rng::Rng trace_rng(42);
  match::workload::ArrivalParams arrivals_params;
  arrivals_params.count = count;
  arrivals_params.rate = rate;
  const std::vector<double> arrivals =
      match::workload::make_poisson_arrivals(arrivals_params, trace_rng);

  RunOutcome out;
  out.template_of.reserve(count);
  std::vector<std::future<MapResponse>> futures;
  futures.reserve(count);

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    if (open_loop) {
      // Open loop: requests arrive on the trace's clock regardless of
      // how far behind the service is.
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(arrivals[i])));
    }
    const std::size_t which = trace_rng.below(templates.size());
    const RequestTemplate& t = templates[which];
    MapRequest request;
    request.id = i;
    request.instance = t.instance;
    request.solver = t.solver;
    request.options = t.options;
    out.template_of.push_back(which);
    futures.push_back(service.submit(std::move(request)));
  }
  out.responses.reserve(count);
  for (auto& f : futures) out.responses.push_back(f.get());
  service.drain();
  out.stats_after = service.stats();
  return out;
}

void print_stats(const char* label, const ServiceStats& s) {
  match::io::Table table({"metric", "value"});
  table.add_row({"submitted", std::to_string(s.submitted)});
  table.add_row({"completed", std::to_string(s.completed)});
  table.add_row({"deadline misses", std::to_string(s.deadline_misses)});
  table.add_row({"coalesced", std::to_string(s.coalesced)});
  table.add_row({"cache hits", std::to_string(s.cache_hits)});
  table.add_row({"cache misses", std::to_string(s.cache_misses)});
  table.add_row({"cache hit rate", match::io::Table::num(s.cache_hit_rate(), 4)});
  table.add_row({"peak queue depth", std::to_string(s.peak_queue_depth)});
  table.add_row({"p50 latency (ms)",
                 match::io::Table::num(1e3 * s.p50_latency_seconds, 4)});
  table.add_row({"p99 latency (ms)",
                 match::io::Table::num(1e3 * s.p99_latency_seconds, 4)});
  table.add_row({"fallback draws", std::to_string(s.fallback_draws)});
  std::cout << "\n-- " << label << " --\n";
  table.print(std::cout);
}

/// Submits one uncached kMatch request, then replays the identical solve
/// (same adapter parameters, same seed) directly through MatchOptimizer
/// and checks that the `iteration` events recorded under the response's
/// run id carry exactly the optimizer's per-iteration γ trajectory.
bool audit_gamma_trajectory(MappingService& service,
                            const match::obs::RingBufferSink& ring,
                            std::shared_ptr<const match::workload::AnyInstance>
                                instance) {
  MapRequest request;
  request.id = 999999;
  request.instance = instance;
  request.solver = SolverKind::kMatch;
  request.options.seed = 4242;
  request.options.max_iterations = 40;
  request.options.use_cache = false;  // force a fresh solver run
  const MapResponse resp = service.submit(std::move(request)).get();
  if (resp.served_by != ServedBy::kSolver || resp.run_id == 0) {
    std::cerr << "FAIL: audit request was not served by a fresh run\n";
    return false;
  }

  // Replay the exact solve the adapter performed (solver_registry.cpp):
  // library-default MatchParams with the request's iteration budget, RNG
  // seeded from options.seed.
  const match::sim::Platform platform = instance->make_platform();
  const match::sim::CostEvaluator eval(instance->tig().tig, platform);
  match::core::MatchParams params;
  params.max_iterations = 40;
  match::core::MatchOptimizer optimizer(eval, params);
  match::rng::Rng rng(4242);
  const match::core::MatchResult direct =
      optimizer.run(match::SolverContext(rng));

  std::vector<double> traced;
  for (const match::obs::Event& e : ring.snapshot()) {
    if (e.kind == match::obs::EventKind::kIteration &&
        e.run_id == resp.run_id) {
      traced.push_back(e.gamma);
    }
  }

  bool ok = traced.size() == direct.history.size();
  for (std::size_t i = 0; ok && i < traced.size(); ++i) {
    ok = traced[i] == direct.history[i].gamma;  // exact, not approximate
  }
  std::cout << "\ntrace audit: " << traced.size()
            << " iteration events under run id " << resp.run_id
            << "; γ trajectory matches MatchOptimizer history exactly: "
            << (ok ? "yes" : "NO") << "\n";
  if (!ok) {
    std::cerr << "FAIL: traced gamma trajectory (" << traced.size()
              << " events) != optimizer history (" << direct.history.size()
              << " iterations)\n";
  }
  return ok;
}

/// Prints where the HTTP routes of `server` answer, if it has any.
void print_http_routes(const match::net::MatchServer& server) {
  if (server.http_port() == 0) return;
  std::cout << "metrics: http://127.0.0.1:" << server.http_port()
            << "/metrics (and /healthz, /debug/requests)" << std::endl;
}

std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) { g_stop.store(true); }

/// `--listen` mode: serve the wire protocol until a signal or the time
/// budget, then print the admission accounting.
int run_listen_mode(MappingService& service, int listen_port,
                    std::optional<std::uint16_t> metrics_port,
                    double serve_seconds, match::obs::EventSink* sink,
                    match::obs::FlightRecorder& recorder) {
  match::net::ServerConfig config;
  config.port = static_cast<std::uint16_t>(listen_port);
  config.http_port = metrics_port;
  config.sink = sink;
  config.recorder = &recorder;
  match::net::MatchServer server(service, config);
  print_http_routes(server);
  std::cout << "listening on 127.0.0.1:" << server.port() << std::endl;

  struct sigaction sa {};
  sa.sa_handler = handle_stop_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  const auto start = std::chrono::steady_clock::now();
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (serve_seconds > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start).count() >= serve_seconds) {
      break;
    }
  }
  server.stop();

  const match::net::ServerCounters c = server.counters();
  match::io::Table table({"net counter", "value"});
  table.add_row({"requests", std::to_string(c.requests)});
  table.add_row({"served", std::to_string(c.served)});
  table.add_row({"served (deadline missed)",
                 std::to_string(c.served_deadline_missed)});
  table.add_row({"shed", std::to_string(c.shed)});
  table.add_row({"rejected (deadline)", std::to_string(c.rejected_deadline)});
  table.add_row({"bad request", std::to_string(c.bad_request)});
  table.add_row({"unknown instance", std::to_string(c.unknown_instance)});
  table.add_row({"server error", std::to_string(c.server_error)});
  std::cout << "\n-- admission accounting --\n";
  table.print(std::cout);
  const bool balanced = c.requests == c.terminal();
  std::cout << "requests == served + shed + rejected + errors: "
            << (balanced ? "yes" : "NO") << "\n";
  std::cout << "spans: " << recorder.recorded() << " timeline(s) recorded, "
            << recorder.dropped() << " evicted\n";
  if (metrics_port) {
    std::cout << "metrics: served "
              << service.metrics().counter_value("net.http_requests")
              << " scrape(s)\n";
  }
  return balanced ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t count = 500;
  double rate = 1000.0;
  const char* trace_path = nullptr;
  std::optional<std::uint16_t> metrics_port;  // unset = no HTTP; 0 = ephemeral
  double linger_seconds = 0.0;
  int listen_port = -1;  // -1 = audit mode; 0 = serve on ephemeral port
  double serve_seconds = 0.0;  // 0 = until SIGINT/SIGTERM
  const char* span_trace_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      count = 120;
    } else if (std::strcmp(argv[i], "--full") == 0) {
      count = 2000;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--span-trace") == 0 && i + 1 < argc) {
      span_trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-port") == 0 && i + 1 < argc) {
      const int port = std::atoi(argv[++i]);
      if (port < 0 || port > 65535) {
        std::cerr << "--metrics-port wants 0..65535\n";
        return 2;
      }
      metrics_port = static_cast<std::uint16_t>(port);
    } else if (std::strcmp(argv[i], "--linger") == 0 && i + 1 < argc) {
      linger_seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--listen") == 0 && i + 1 < argc) {
      listen_port = std::atoi(argv[++i]);
      if (listen_port < 0 || listen_port > 65535) {
        std::cerr << "--listen wants 0..65535\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--serve-seconds") == 0 && i + 1 < argc) {
      serve_seconds = std::atof(argv[++i]);
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--quick|--full] [--trace out.jsonl]"
                << " [--metrics-port N] [--linger S]"
                << " [--listen PORT [--serve-seconds S]"
                << " [--span-trace spans.jsonl]]\n";
      return 2;
    }
  }
  if (span_trace_path != nullptr && listen_port < 0) {
    std::cerr << "--span-trace requires --listen (spans are stamped by the "
                 "network server)\n";
    return 2;
  }

  const auto templates = make_templates(8);
  std::cout << "== match_server: " << count << "-request open-loop trace over "
            << templates.size() << " request templates ==\n";

  // The sink chain must outlive the service (ServiceConfig::sink is
  // borrowed).  The ring buffer always runs — it feeds the γ-trajectory
  // audit — and `--trace` tees a JSONL stream on top of it.
  match::obs::RingBufferSink ring(8192);
  std::ofstream trace_file;
  std::unique_ptr<match::obs::JsonlSink> jsonl;
  std::unique_ptr<match::obs::TeeSink> tee;
  match::obs::EventSink* sink = &ring;
  if (trace_path != nullptr) {
    trace_file.open(trace_path);
    if (!trace_file) {
      std::cerr << "cannot open trace file: " << trace_path << "\n";
      return 2;
    }
    jsonl = std::make_unique<match::obs::JsonlSink>(trace_file);
    tee = std::make_unique<match::obs::TeeSink>(jsonl.get(), &ring);
    sink = tee.get();
  }

  match::service::ServiceConfig config;
  config.workers = 4;
  config.cache_capacity = 4096;
  config.sink = sink;
  MappingService service(config);

  if (listen_port >= 0) {
    // The flight recorder always runs in listen mode: the retention cost
    // is bounded and `/debug/requests` should answer during an incident,
    // not only when tracing was preconfigured.
    match::obs::FlightRecorder recorder;
    std::ofstream span_file;
    if (span_trace_path != nullptr) {
      span_file.open(span_trace_path);
      if (!span_file) {
        std::cerr << "cannot open span trace file: " << span_trace_path
                  << "\n";
        return 2;
      }
      recorder.attach_stream(&span_file);
      std::cout << "span trace: streaming timelines to " << span_trace_path
                << "\n";
    }
    int rc = 2;
    try {
      rc = run_listen_mode(service, listen_port, metrics_port, serve_seconds,
                           sink, recorder);
    } catch (const std::exception& e) {
      std::cerr << "server failed to start: " << e.what() << "\n";
    }
    service.shutdown();
    if (span_trace_path != nullptr) {
      recorder.flush_stream();
      recorder.attach_stream(nullptr);  // detach before span_file dies
      std::cout << "span trace: " << recorder.recorded()
                << " timeline(s) written to " << span_trace_path << "\n";
    }
    if (trace_path != nullptr) {
      jsonl->flush();
      std::cout << "trace: " << jsonl->emitted() << " events written to "
                << trace_path << "\n";
    }
    return rc;
  }

  // Prometheus exposition over the service registry, served by a
  // MatchServer's reactor.  A scrape renders a MetricsSnapshot — a pure
  // observer that can run mid-trace without perturbing any solver.
  std::unique_ptr<match::net::MatchServer> http_server;
  if (metrics_port) {
    match::net::ServerConfig http;
    http.http_port = metrics_port;
    try {
      http_server = std::make_unique<match::net::MatchServer>(service, http);
    } catch (const std::exception& e) {
      std::cerr << "metrics server failed to start: " << e.what() << "\n";
      return 2;
    }
    print_http_routes(*http_server);
  }

  // ---- Run 1: cold cache, open loop. -----------------------------------
  const RunOutcome cold = run_trace(service, templates, count, rate,
                                    /*open_loop=*/true);
  print_stats("cold run", cold.stats_after);

  bool ok = true;
  std::size_t flagged = 0;
  for (std::size_t i = 0; i < cold.responses.size(); ++i) {
    const MapResponse& r = cold.responses[i];
    if (!r.mapping.is_permutation()) {
      std::cerr << "FAIL: request " << i << " returned an invalid mapping\n";
      ok = false;
    }
    const double deadline =
        templates[cold.template_of[i]].options.deadline_seconds;
    if (deadline > 0.0 &&
        (r.total_seconds > deadline) != r.deadline_missed) {
      std::cerr << "FAIL: request " << i
                << " deadline accounting inconsistent (latency "
                << r.total_seconds << "s vs budget " << deadline << "s)\n";
      ok = false;
    }
    if (r.deadline_missed) ++flagged;
  }
  if (flagged != cold.stats_after.deadline_misses) {
    std::cerr << "FAIL: " << flagged << " flagged responses but stats count "
              << cold.stats_after.deadline_misses << "\n";
    ok = false;
  }
  std::cout << "\naccounting: every response met its deadline or is counted "
               "as a miss with a valid mapping: "
            << (ok ? "yes" : "NO") << " (" << flagged << " misses, all "
            << "flagged)\n";

  // ---- Run 2: identical trace against the warm cache. ------------------
  const RunOutcome warm = run_trace(service, templates, count, rate,
                                    /*open_loop=*/false);
  print_stats("warm rerun (cumulative counters)", warm.stats_after);

  const std::size_t warm_hits =
      warm.stats_after.cache_hits - cold.stats_after.cache_hits;
  const std::size_t warm_lookups =
      warm_hits +
      (warm.stats_after.cache_misses - cold.stats_after.cache_misses);
  const double warm_rate =
      warm_lookups == 0
          ? 0.0
          : static_cast<double>(warm_hits) / static_cast<double>(warm_lookups);

  std::size_t compared = 0;
  bool identical = true;
  for (std::size_t i = 0; i < warm.responses.size(); ++i) {
    if (warm.responses[i].served_by != ServedBy::kCache) continue;
    // Compare against the cold run's answer for the same request slot;
    // skip slots whose cold answer was deadline-truncated (those were
    // never cached, so the cache canon comes from a complete run).
    if (cold.responses[i].deadline_missed) continue;
    ++compared;
    if (!(warm.responses[i].mapping == cold.responses[i].mapping)) {
      identical = false;
      std::cerr << "FAIL: request " << i
                << " served from cache differs from the cold-run mapping\n";
    }
  }

  std::cout << "\nwarm rerun: hit rate " << match::io::Table::num(warm_rate, 4)
            << " over " << warm_lookups << " lookups; " << compared
            << " cache-served responses byte-identical to cold run: "
            << (identical ? "yes" : "NO") << "\n";

  if (warm_rate <= 0.5) {
    std::cerr << "FAIL: warm-cache hit rate " << warm_rate << " <= 0.5\n";
    ok = false;
  }
  if (!identical) ok = false;

  // ---- Trace audit: events must reconstruct the solver's history. ------
  if (!audit_gamma_trajectory(service, ring, templates[0].instance)) {
    ok = false;
  }

  service.shutdown();
  if (trace_path != nullptr) {
    jsonl->flush();
    std::cout << "trace: " << jsonl->emitted() << " events written to "
              << trace_path << " (" << ring.dropped()
              << " dropped from the audit ring)\n";
  }
  if (http_server && linger_seconds > 0.0) {
    std::cout << "lingering " << linger_seconds
              << "s for scrapes (curl http://127.0.0.1:"
              << http_server->http_port() << "/metrics)..." << std::endl;
    std::this_thread::sleep_for(std::chrono::duration<double>(linger_seconds));
  }
  if (http_server) {
    http_server->stop();
    std::cout << "metrics: served "
              << service.metrics().counter_value("net.http_requests")
              << " scrape(s)\n";
  }
  std::cout << "\n" << (ok ? "OK" : "FAILED") << "\n";
  return ok ? 0 : 1;
}
