// End-to-end benchmark of the mapping stack: the real wire server
// (net::MatchServer over service::MappingService, 2 service workers)
// runs in-process on loopback, and 2 client connections drive one
// workload as a closed loop.  Every answer is checked.
//
//   match_perfbench --workload tig-solve|dag-solve|serve-cached
//                   --seed N --seconds S --trace 0|1
//                   [--git-sha SHA] [--source-digest HEX]
//   match_perfbench --self-test
//
// --trace 0 prints the end-to-end metrics (three set-up + measure
// repetitions, see run_timed); --trace 1 runs an untraced reference
// phase and then a traced phase (span recorder attached, benchmark spans
// around client encode/decode), each over half of --seconds, and prints
// the per-layer metrics, each with its source.  The last stdout line is
// the JSON result {"correct", "attempted", "failed", "metrics"}.  Exit
// 0 only when every check passed; 2 on bad arguments.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baselines/heft.hpp"
#include "baselines/list_heuristics.hpp"
#include "bench_stats.hpp"
#include "core/dag_ce.hpp"
#include "core/genperm.hpp"
#include "core/matchalgo.hpp"
#include "net/server.hpp"
#include "net/socket_util.hpp"
#include "net/wire.hpp"
#include "obs/spans.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "selftest.hpp"
#include "service/instance_cache.hpp"
#include "service/service.hpp"
#include "sim/batch_eval.hpp"
#include "sim/evaluator.hpp"
#include "sim/schedule_eval.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using match::net::Status;
using match::net::WireRequest;
using match::net::WireResponse;
using match::service::MapResponse;
using match::service::SolverKind;

double since(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

const Clock::time_point kProcessStart = Clock::now();

// ---- run parameters ----------------------------------------------------

constexpr std::size_t kConnections = 2;
constexpr std::size_t kServiceWorkers = 2;
// Set-up + measure repetitions per timed run, and the steal filter on
// them (see run_timed).
constexpr std::size_t kSetupRepeats = 3;
constexpr double kMaxStealFrac = 0.05;
constexpr std::size_t kMaxDiscards = 3;
// No repetition is discarded once the run is this old, so a run ends
// well inside the three minutes a caller may allow it.
constexpr double kDiscardWindowSeconds = 60.0;
// serve-cached: the stream prefix whose answers define cost_ratio and
// core.iterations (always answered, so these repeat exactly per seed).
// Solve runs use all their requests, a fixed multiset.
constexpr std::uint64_t kCachedPrefix = 64;
// A phase that has not finished by then is cut and fails its checks.
constexpr double kPhaseLimitSeconds = 75.0;
// Solve requests re-solved directly after the timed phase.
constexpr std::uint64_t kResolved = 3;
// Wire ids: timed phases use index + 1; retries and warm-up get their
// own ranges so every wire request of one server has a unique id.
constexpr std::uint64_t kRetryBit = 1ULL << 62;
constexpr std::uint64_t kWarmupBase = 1ULL << 61;
// Kernel probes run this long each.
constexpr double kProbeSeconds = 0.2;

struct Args {
  WorkloadId workload = WorkloadId::kTigSolve;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool self_test = false;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = parse_workload(value);
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
      if (!(a.seconds > 0.0 && a.seconds <= 60.0)) {
        throw std::invalid_argument("--seconds must be in (0, 60]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = value == "1";
    } else if (flag == "--git-sha") {
      a.git_sha = value;
    } else if (flag == "--source-digest") {
      a.source_digest = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!a.self_test && !have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

bool is_solve(WorkloadId id) { return id != WorkloadId::kServeCached; }


/// The tail percentile each workload reports: p90 where solves keep the
/// sample count in the hundreds, p99 on the cached path.
double tail_q(WorkloadId id) { return is_solve(id) ? 0.90 : 0.99; }

// ---- client connection -------------------------------------------------

/// Benchmark-side spans of one call (traced phase only).
struct CallSpans {
  double encode_s = 0.0;
  double decode_s = 0.0;
  std::size_t request_bytes = 0;
};

/// One blocking loopback connection speaking the wire protocol through
/// the public codec, so the benchmark can time encode and decode.
class Conn {
 public:
  explicit Conn(std::uint16_t port) : fd_(match::net::connect_to("127.0.0.1", port)) {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Conn() { match::net::close_fd(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  WireResponse call(const WireRequest& request, CallSpans* spans) {
    const Clock::time_point t0 = spans ? Clock::now() : Clock::time_point{};
    const std::string frame = match::net::encode_request(request);
    if (spans) {
      spans->encode_s += since(t0, Clock::now());
      spans->request_bytes += frame.size();
    }
    if (!match::net::send_all(fd_, frame.data(), frame.size())) {
      throw std::runtime_error("send failed");
    }
    char header[match::net::kHeaderSize];
    if (!match::net::recv_all(fd_, header, sizeof(header))) {
      throw std::runtime_error("connection closed before a response");
    }
    const Clock::time_point t1 = spans ? Clock::now() : Clock::time_point{};
    const match::net::FrameHeader h =
        match::net::decode_header(std::string_view(header, sizeof(header)));
    if (spans) spans->decode_s += since(t1, Clock::now());
    std::string payload(h.payload_size, '\0');
    if (h.payload_size > 0 &&
        !match::net::recv_all(fd_, payload.data(), payload.size())) {
      throw std::runtime_error("connection closed mid-response");
    }
    const Clock::time_point t2 = spans ? Clock::now() : Clock::time_point{};
    WireResponse response = match::net::decode_response(h, payload);
    if (spans) spans->decode_s += since(t2, Clock::now());
    if (response.request_id != request.request_id) {
      throw std::runtime_error("response id does not match the request");
    }
    return response;
  }

 private:
  int fd_;
};

// ---- answer identity ---------------------------------------------------

/// The bytes that define an answer: the assignment and the cost's bits.
std::string answer_bytes(const MapResponse& r) {
  const auto a = r.mapping.assignment();
  std::string out(reinterpret_cast<const char*>(a.data()),
                  a.size() * sizeof(a[0]));
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(r.cost);
  out.append(reinterpret_cast<const char*>(&bits), sizeof(bits));
  return out;
}

/// Structural check of one answer: size, resource ids in range, and for
/// TIG answers the evaluator's makespan equal to the returned cost (and
/// a permutation for MaTCH).  Returns "" when it holds.
std::string check_answer(const match::workload::AnyInstance& inst,
                         SolverKind solver, const MapResponse& r) {
  const auto a = r.mapping.assignment();
  if (a.size() != inst.size()) return "mapping size differs from task count";
  const std::size_t nr = inst.resources().num_resources();
  for (const auto res : a) {
    if (res >= nr) return "resource id out of range";
  }
  if (!(std::isfinite(r.cost) && r.cost > 0.0)) return "non-positive cost";
  if (inst.is_tig()) {
    if (solver == SolverKind::kMatch && !r.mapping.is_permutation()) {
      return "MaTCH mapping is not a permutation";
    }
    const match::sim::Platform platform = inst.make_platform();
    const match::sim::CostEvaluator eval(inst.tig().tig, platform);
    if (eval.makespan(a) != r.cost) return "makespan differs from returned cost";
  }
  return "";
}

// ---- the stack under test ----------------------------------------------

struct Stack {
  std::unique_ptr<match::service::MappingService> service;
  std::unique_ptr<match::obs::FlightRecorder> recorder;
  std::unique_ptr<match::net::MatchServer> server;
  std::vector<std::unique_ptr<Conn>> conns;
  /// serve-cached: the first answer seen for each hot key.
  std::vector<std::string> expected_hot;
};

/// Starts service + server, connects the clients, and (serve-cached)
/// registers every hot instance inline and warms each hot key once.
std::unique_ptr<Stack> make_stack(const Workload& w, bool traced) {
  auto s = std::make_unique<Stack>();
  match::service::ServiceConfig sc;
  sc.workers = kServiceWorkers;
  s->service = std::make_unique<match::service::MappingService>(sc);
  match::net::ServerConfig nc;
  if (traced) {
    match::obs::FlightRecorderConfig rc;
    rc.recent_capacity = 1u << 16;
    rc.slow_capacity = 1u << 12;
    s->recorder = std::make_unique<match::obs::FlightRecorder>(rc);
    nc.recorder = s->recorder.get();
  }
  s->server = std::make_unique<match::net::MatchServer>(*s->service, nc);
  for (std::size_t c = 0; c < kConnections; ++c) {
    s->conns.push_back(std::make_unique<Conn>(s->server->port()));
  }
  std::uint64_t id = kWarmupBase;
  s->expected_hot.resize(w.hot_keys.size());
  std::vector<bool> registered(w.hot_instances.size(), false);
  for (std::size_t k = 0; k < w.hot_keys.size(); ++k) {
    const HotKey& key = w.hot_keys[k];
    WireRequest req;
    req.request_id = ++id;
    req.request.id = req.request_id;
    req.request.solver = key.solver;
    req.request.options.seed = key.seed;
    if (registered[key.instance]) {
      req.by_fingerprint = true;
      req.instance_fingerprint = w.hot_fingerprints[key.instance];
    } else {
      req.request.instance = w.hot_instances[key.instance];
      registered[key.instance] = true;
    }
    const WireResponse resp = s->conns[0]->call(req, nullptr);
    if (resp.status != Status::kOk) {
      throw std::runtime_error(std::string("warm-up request refused: ") +
                               match::net::to_string(resp.status));
    }
    const std::string why =
        check_answer(*w.hot_instances[key.instance], key.solver, resp.response);
    if (!why.empty()) throw std::runtime_error("warm-up answer wrong: " + why);
    s->expected_hot[k] = answer_bytes(resp.response);
  }
  return s;
}

// ---- the closed loop ---------------------------------------------------

/// A full answer kept for the post-phase checks: every write and every
/// request of the stream prefix.  Cache hits outside the prefix are
/// checked inside the loop and dropped, so memory stays flat.
struct Answer {
  std::uint64_t index = 0;
  MapResponse response;
  bool wrong = false;  ///< already booked in Tally::wrong
};

/// Traced phase: one answered, non-retried request, for the span join.
struct Joined {
  double latency_s = 0.0;
  double client_s = 0.0;  ///< benchmark encode + decode spans
};

/// Per-layer sums over the answered requests of a phase.
struct Sums {
  double rtt_overhead_s = 0.0;  ///< latency - MapResponse::total_seconds
  double encode_s = 0.0;
  double decode_s = 0.0;
  double request_bytes = 0.0;
  double queue_s = 0.0;
  double solve_s = 0.0;
  std::size_t solved = 0;  ///< served by a solver run

  Sums& operator+=(const Sums& o) {
    rtt_overhead_s += o.rtt_overhead_s;
    encode_s += o.encode_s;
    decode_s += o.decode_s;
    request_bytes += o.request_bytes;
    queue_s += o.queue_s;
    solve_s += o.solve_s;
    solved += o.solved;
    return *this;
  }
};

struct PhaseResult {
  Tally tally;
  std::vector<double> latency_ms;         ///< every answered request
  std::vector<double> insert_latency_ms;  ///< answered write-class requests
  std::vector<Answer> answers;            ///< sorted by stream index
  std::unordered_map<std::uint64_t, Joined> joins;  ///< by wire id, traced only
  Sums sums;
  std::uint64_t checked = 0;  ///< stream prefix verify() compares in full
  double elapsed_s = 0.0;
  std::vector<std::string> errors;
};

/// Solve workloads send their fixed request count; serve-cached runs for
/// `seconds` and then until the tail percentile has its samples.
PhaseResult run_phase(Stack& stack, const Workload& w, double seconds,
                      bool traced) {
  auto after = [](Clock::time_point t, double s) {
    return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = after(start, seconds);
  const Clock::time_point hard_stop = after(start, kPhaseLimitSeconds);
  const std::uint64_t total = w.requests_per_run(seconds);
  const std::size_t min_samples = samples_needed(tail_q(w.id));
  std::atomic<std::uint64_t> next_index{0};
  std::atomic<std::size_t> answered{0};

  std::vector<PhaseResult> per(stack.conns.size());
  std::vector<Clock::time_point> last(stack.conns.size(), start);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < stack.conns.size(); ++c) {
    threads.emplace_back([&, c] {
      PhaseResult& me = per[c];
      Conn& conn = *stack.conns[c];
      auto error = [&me](std::string what) {
        if (me.errors.size() < 4) me.errors.push_back(std::move(what));
      };
      while (true) {
        const Clock::time_point now = Clock::now();
        if (now >= hard_stop ||
            (total == 0 && now >= deadline &&
             answered.load(std::memory_order_relaxed) >= min_samples)) {
          break;
        }
        const std::uint64_t index = next_index.fetch_add(1, std::memory_order_relaxed);
        if (total != 0 && index >= total) break;
        std::uint64_t wire_id = index + 1;
        bool retried = false;
        ++me.tally.attempted;
        CallSpans spans;
        WireResponse resp;
        const Clock::time_point t0 = Clock::now();
        try {
          resp = conn.call(w.request(index, wire_id), traced ? &spans : nullptr);
          if (resp.status == Status::kUnknownInstance && !w.is_write(index)) {
            ++me.tally.retries;
            retried = true;
            wire_id |= kRetryBit;
            resp = conn.call(w.inline_request(index, wire_id), traced ? &spans : nullptr);
          }
        } catch (const std::exception& e) {
          ++me.tally.errored;
          error(std::string("transport: ") + e.what());
          break;
        }
        last[c] = Clock::now();
        const double latency = since(t0, last[c]);
        if (resp.status == Status::kShed || resp.status == Status::kRejectedDeadline) {
          ++me.tally.refused;
          continue;
        }
        if (resp.status != Status::kOk) {
          ++me.tally.errored;
          error(std::string("status ") + match::net::to_string(resp.status) + ": " + resp.error);
          continue;
        }
        ++me.tally.ok;
        answered.fetch_add(1, std::memory_order_relaxed);
        const MapResponse& r = resp.response;
        me.latency_ms.push_back(latency * 1e3);
        bool wrong = false;
        if (w.is_write(index)) {
          me.insert_latency_ms.push_back(latency * 1e3);
        } else if (answer_bytes(r) != stack.expected_hot[w.hot_key_of(index)]) {
          // Cache path: the answer must equal the first one for its key.
          wrong = true;
          ++me.tally.wrong;
          error("cached answer differs from the first answer for its key");
        }
        me.sums.rtt_overhead_s += latency - r.total_seconds;
        me.sums.encode_s += spans.encode_s;
        me.sums.decode_s += spans.decode_s;
        me.sums.request_bytes += static_cast<double>(spans.request_bytes);
        me.sums.queue_s += r.queue_seconds;
        me.sums.solve_s += r.solve_seconds;
        if (r.served_by == match::service::ServedBy::kSolver) ++me.sums.solved;
        if (traced && !retried) {
          me.joins.emplace(wire_id, Joined{latency, spans.encode_s + spans.decode_s});
        }
        if (w.is_write(index) || index < kCachedPrefix) {
          me.answers.push_back({index, std::move(resp.response), wrong});
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  PhaseResult out;
  out.checked = total != 0 ? total : kCachedPrefix;
  for (std::size_t c = 0; c < per.size(); ++c) {
    PhaseResult& p = per[c];
    out.tally += p.tally;
    out.sums += p.sums;
    out.elapsed_s = std::max(out.elapsed_s, since(start, last[c]));
    auto append = [](auto& to, auto& from) {
      to.insert(to.end(), std::make_move_iterator(from.begin()),
                std::make_move_iterator(from.end()));
    };
    append(out.latency_ms, p.latency_ms);
    append(out.insert_latency_ms, p.insert_latency_ms);
    append(out.answers, p.answers);
    append(out.errors, p.errors);
    out.joins.merge(p.joins);
  }
  std::sort(out.latency_ms.begin(), out.latency_ms.end());
  std::sort(out.insert_latency_ms.begin(), out.insert_latency_ms.end());
  std::sort(out.answers.begin(), out.answers.end(),
            [](const Answer& a, const Answer& b) { return a.index < b.index; });
  return out;
}

// ---- post-phase checks -------------------------------------------------

struct PrefixStats {
  double cost_ratio = 0.0;
  std::uint64_t iterations = 0;
  std::uint64_t samples = 0;  ///< CE samples drawn (iterations x batch)
  double list_solve_s = 0.0;  ///< mean baseline list-solve time
};

/// Direct re-solve of request `index` with the registry adapter's
/// parameters; true when the wire answer matches it bit for bit.
bool resolves_identically(const Workload& w, std::uint64_t index,
                          const MapResponse& served) {
  const WireRequest req = w.request(index, index + 1);
  const auto& inst = *req.request.instance;
  const match::sim::Platform platform = inst.make_platform();
  match::rng::Rng rng(req.request.options.seed);
  match::SolverContext ctx;
  ctx.with_rng(rng);
  match::sim::Mapping mapping;
  double cost = 0.0;
  std::size_t iterations = 0;
  if (inst.is_tig()) {
    const match::sim::CostEvaluator eval(inst.tig().tig, platform);
    match::core::MatchOptimizer opt(eval, match::core::MatchParams{});
    const match::core::MatchResult r = opt.run(ctx);
    mapping = r.best_mapping;
    cost = r.best_cost;
    iterations = r.iterations;
  } else {
    const match::sim::ScheduleEvaluator eval(inst.dag().dag, platform);
    const match::core::DagCeResult r =
        match::core::solve_dag_ce(eval, match::core::DagCeParams{}, ctx);
    mapping = r.best_mapping;
    cost = r.best_cost;
    iterations = r.iterations;
  }
  return std::bit_cast<std::uint64_t>(cost) == std::bit_cast<std::uint64_t>(served.cost) &&
         std::ranges::equal(mapping.assignment(), served.mapping.assignment()) &&
         iterations == served.iterations;
}

/// Checks every stored answer, re-solves the fixed subset, and computes
/// the prefix statistics.  Failed checks move answers to `wrong`.
PrefixStats verify(const Workload& w, PhaseResult& phase) {
  // Each wrong answer is booked once, however many checks it fails.
  auto flag = [&phase](Answer& a, const std::string& why) {
    phase.errors.push_back("request " + std::to_string(a.index) + ": " + why);
    if (!a.wrong) ++phase.tally.wrong;
    a.wrong = true;
  };
  for (Answer& a : phase.answers) {
    if (!w.is_write(a.index)) continue;
    const WireRequest req = w.request(a.index, 0);
    const std::string why =
        check_answer(*w.instance_of(a.index), req.request.solver, a.response);
    if (!why.empty()) flag(a, why);
  }
  const std::uint64_t prefix = phase.checked;
  std::vector<Answer*> by_index(prefix, nullptr);
  for (Answer& a : phase.answers) {
    if (a.index < prefix) by_index[a.index] = &a;
  }
  PrefixStats ps;
  std::vector<double> returned, baseline;
  double list_seconds = 0.0;
  for (std::uint64_t i = 0; i < prefix; ++i) {
    if (by_index[i] == nullptr) {
      // A refused or errored request is already booked; one never sent
      // (the phase hit its time limit) is booked here.
      if (i >= phase.tally.attempted) ++phase.tally.errored;
      phase.errors.push_back("prefix request " + std::to_string(i) + " has no answer");
      continue;
    }
    const MapResponse& r = by_index[i]->response;
    const auto& inst = *w.instance_of(i);
    const match::sim::Platform platform = inst.make_platform();
    const SolverKind solver = w.request(i, 0).request.solver;
    MapResponse direct;  // the baseline's answer
    if (inst.is_tig()) {
      const match::sim::CostEvaluator eval(inst.tig().tig, platform);
      const Clock::time_point t0 = Clock::now();
      const auto b = match::baselines::list_schedule(eval, match::baselines::ListRule::kMinMin);
      list_seconds += since(t0, Clock::now());
      direct.mapping = b.best_mapping;
      direct.cost = b.best_cost;
      if (solver == SolverKind::kMatch) {
        match::core::MatchOptimizer opt(eval, match::core::MatchParams{});
        ps.samples += r.iterations * opt.effective_sample_size();
      }
    } else {
      const match::sim::ScheduleEvaluator eval(inst.dag().dag, platform);
      const Clock::time_point t0 = Clock::now();
      const auto b = match::baselines::heft_schedule(eval);
      list_seconds += since(t0, Clock::now());
      direct.mapping = b.best_mapping;
      direct.cost = b.best_cost;
      if (solver == SolverKind::kDagCe) {
        // core::solve_dag_ce's batch rule for sample_size == 0.
        ps.samples += r.iterations * std::max<std::size_t>(64, 2 * inst.size());
      }
    }
    ps.iterations += r.iterations;
    returned.push_back(r.cost);
    baseline.push_back(direct.cost);
    // serve-cached answers are the list baselines themselves: the wire
    // answer must equal the direct call bit for bit.
    if (!is_solve(w.id) && answer_bytes(r) != answer_bytes(direct)) {
      flag(*by_index[i], "answer differs from the direct list solve");
    }
  }
  if (!returned.empty()) ps.cost_ratio = cost_ratio_geomean(returned, baseline);
  ps.list_solve_s = returned.empty() ? 0.0 : list_seconds / returned.size();
  if (is_solve(w.id)) {
    for (std::uint64_t i = 0; i < kResolved && i < prefix; ++i) {
      if (by_index[i] == nullptr) continue;
      if (!resolves_identically(w, i, by_index[i]->response)) {
        flag(*by_index[i], "direct re-solve differs from the wire answer");
      }
    }
  }
  return ps;
}

// ---- metrics -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count or source, human output only
};

/// Peak resident set of this process image (VmHWM).  Not getrusage's
/// ru_maxrss, which Linux carries over from the parent across exec and
/// so would report the launcher's footprint.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A timed run's percentile and how it was taken.
struct RunPercentile {
  Percentile p;  ///< count/beyond: pooled, or the smallest repetition
  bool per_rep = false;
};

std::string pct_note(const RunPercentile& rp, double q) {
  std::ostringstream os;
  os << (rp.per_rep ? "median of the repetitions' p" : "pooled p") << fmt_num(100.0 * q)
     << (rp.per_rep ? ", smallest n=" : " of n=") << rp.p.count << ", " << rp.p.beyond
     << " beyond";
  return os.str();
}

/// The q-percentile of a timed run: the median of the repetitions'
/// percentiles when each repetition alone leaves kMinBeyond samples
/// beyond it, else the percentile of the pooled samples (sorted).
RunPercentile rep_percentile(std::vector<std::vector<double>>& reps,
                             const std::vector<double>& pooled, double q) {
  std::vector<double> values;
  RunPercentile out{{}, true};
  for (auto& r : reps) {
    if (r.empty()) return {percentile(pooled, q), false};
    std::sort(r.begin(), r.end());
    const Percentile p = percentile(r, q);
    if (!p.supported()) return {percentile(pooled, q), false};
    if (values.empty() || p.count < out.p.count) out.p = p;
    values.push_back(p.value);
  }
  out.p.value = median(values);
  return out;
}

// ---- kernel probes (traced runs, after the phase) ----------------------

/// Runs `body` (one call = `per_call` units of work) for kProbeSeconds
/// and returns units per second.
template <class F>
double rate_of(double per_call, F&& body) {
  std::size_t calls = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  do {
    body();
    ++calls;
    elapsed = since(t0, Clock::now());
  } while (elapsed < kProbeSeconds);
  return per_call * static_cast<double>(calls) / elapsed;
}

struct Probes {
  double draws_per_s = 0.0;
  double batch_eval_samples_per_s = 0.0;
  std::string batch_backend;
  double priority_samples_per_s = 0.0;
  std::string schedule_backend;
  double fingerprint_us = 0.0;
};

/// A TIG and a DAG instance representative of the workload's draw and
/// evaluation sizes; workloads without one of the kinds get a
/// seed-generated reference instance (probe only, never sent).
struct ProbeInstances {
  InstancePtr tig;
  InstancePtr dag;
};

ProbeInstances probe_instances(const Workload& w) {
  ProbeInstances p;
  auto largest = [](const std::vector<InstancePtr>& v, bool tig) {
    InstancePtr best;
    for (const auto& i : v) {
      if (i->is_tig() == tig && (!best || i->size() > best->size())) best = i;
    }
    return best;
  };
  const std::vector<InstancePtr>& src = is_solve(w.id) ? w.pool : w.hot_instances;
  p.tig = largest(src, true);
  p.dag = largest(src, false);
  if (!p.tig) p.tig = largest(make_workload(WorkloadId::kTigSolve, w.seed).pool, true);
  if (!p.dag) p.dag = largest(make_workload(WorkloadId::kDagSolve, w.seed).pool, false);
  return p;
}

Probes run_probes(const Workload& w) {
  Probes out;
  const ProbeInstances pi = probe_instances(w);
  match::rng::Rng rng(w.seed ^ 0x9e3779b97f4a7c15ULL);

  // GenPerm draws on a mid-run matrix: MaTCH stopped after 10 of its
  // (typically 50-150) iterations, on the workload's largest TIG
  // (dag-solve borrows tig-solve's).
  {
    const auto& tig = pi.tig->tig();
    const match::sim::Platform platform = pi.tig->make_platform();
    const match::sim::CostEvaluator eval(tig.tig, platform);
    match::core::MatchParams params;
    params.max_iterations = 10;
    match::SolverContext ctx;
    match::rng::Rng run_rng(w.seed);
    ctx.with_rng(run_rng);
    const auto r = match::core::MatchOptimizer(eval, params).run(ctx);
    match::core::RowAliasTables tables;
    tables.build(r.final_matrix);
    const std::size_t n = tig.size();
    match::core::GenPermSampler sampler(n);
    std::vector<match::graph::NodeId> out_perm(n);
    out.draws_per_s = rate_of(64.0, [&] {
      for (int k = 0; k < 64; ++k) sampler.sample(r.final_matrix, tables, rng, out_perm);
    });

    const std::size_t batch = 1024;
    match::sim::SampleBlock block(n, batch);
    for (std::size_t i = 0; i < batch; ++i) {
      const auto m = match::sim::Mapping::random_permutation(n, rng);
      block.store_sample(i, m.assignment());
    }
    const match::sim::BatchEvaluator be(eval);
    std::vector<double> costs(batch);
    out.batch_backend = be.backend_name();
    out.batch_eval_samples_per_s =
        rate_of(static_cast<double>(batch), [&] { be.evaluate(block, costs); });
  }
  {
    const auto& dag = pi.dag->dag();
    const match::sim::Platform platform = pi.dag->make_platform();
    const match::sim::ScheduleEvaluator eval(dag.dag, platform);
    const std::size_t n = dag.size();
    const std::size_t batch = 256;
    match::sim::SampleBlock block(n, batch);
    for (std::size_t i = 0; i < batch; ++i) {
      const auto m = match::sim::Mapping::random_permutation(n, rng);
      block.store_sample(i, m.assignment());
    }
    std::vector<double> costs(batch);
    out.schedule_backend = eval.backend_name();
    out.priority_samples_per_s = rate_of(static_cast<double>(batch), [&] {
      eval.priority_makespans_batch(block, costs);
    });
  }
  {
    const Clock::time_point t0 = Clock::now();
    for (const auto& inst : w.pool) {
      static_cast<void>(match::service::fingerprint_instance(*inst));
    }
    out.fingerprint_us = since(t0, Clock::now()) * 1e6 / static_cast<double>(w.pool.size());
  }
  return out;
}

// ---- environment stamp ---------------------------------------------------

std::string cpu_model_and_flags(std::string* flags) {
  std::ifstream in("/proc/cpuinfo");
  std::string line, model = "unknown";
  std::string all_flags;
  while (std::getline(in, line)) {
    auto value = [&] {
      const auto c = line.find(':');
      return c == std::string::npos || c + 2 > line.size() ? std::string()
                                                          : line.substr(c + 2);
    };
    if (model == "unknown" && line.rfind("model name", 0) == 0) model = value();
    if (all_flags.empty() && (line.rfind("flags", 0) == 0 || line.rfind("Features", 0) == 0)) {
      all_flags = " " + value() + " ";
    }
  }
  std::string simd;
  for (const char* f : {"sse4_2", "avx", "avx2", "fma", "avx512f", "avx512dq",
                        "avx512bw", "avx512vl", "asimd"}) {
    if (all_flags.find(std::string(" ") + f + " ") != std::string::npos) {
      simd += simd.empty() ? f : std::string(",") + f;
    }
  }
  *flags = simd.empty() ? "none" : simd;
  return model;
}

/// {steal, total} jiffies of all CPUs from /proc/stat; {0, 0} when
/// unreadable.  Steal is time the hypervisor gave this VM's CPUs to
/// someone else: a run with much of it measured a busy host.
std::pair<double, double> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0.0, steal = 0.0, v = 0.0;
  for (int field = 0; field < 10 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

const std::pair<double, double> kStartTicks = cpu_ticks();

/// Share of all CPU time the host stole between two cpu_ticks() reads.
double steal_between(const std::pair<double, double>& from,
                     const std::pair<double, double>& to) {
  const double total = to.second - from.second;
  return total > 0.0 ? (to.first - from.first) / total : 0.0;
}

/// The solver.backend.<name> counters the service booked, "name x count".
std::string booked_backends(const Stack& stack) {
  std::string backends;
  for (const auto& [name, count] : stack.service->metrics().snapshot().counters) {
    if (name.rfind("solver.backend.", 0) == 0) {
      backends += (backends.empty() ? "" : ",") + name.substr(15) + "x" +
                  std::to_string(count);
    }
  }
  return backends.empty() ? "none-booked" : backends;
}

void print_stamp(const Args& a, const std::string& backends,
                 const std::string& batch_backend, const std::string& extra) {
  const double steal_frac = steal_between(kStartTicks, cpu_ticks());
  std::string flags;
  const std::string model = cpu_model_and_flags(&flags);
  std::cout << "stamp: workload=" << workload_name(a.workload) << " seed=" << a.seed
            << " seconds=" << fmt_num(a.seconds) << " trace=" << a.trace << "\n"
            << "stamp: nproc=" << std::thread::hardware_concurrency()
            << " cpu=\"" << model << "\" simd_flags=" << flags << "\n"
            << "stamp: solver.backend=" << backends
            << " eval_backend.auto="
            << match::sim::to_string(match::sim::resolve_eval_backend(match::sim::EvalBackend::kAuto))
            << (batch_backend.empty() ? "" : " batch_eval.backend=" + batch_backend)
            << " MATCH_DISABLE_SIMD=" << PERFBENCH_DISABLE_SIMD
            << " build_type=" << PERFBENCH_BUILD_TYPE << "\n"
            << "stamp: global_pool=" << match::parallel::ThreadPool::global().thread_count()
            << " service_workers=" << kServiceWorkers << " connections=" << kConnections
            << " git_sha=" << a.git_sha << " source_digest=" << a.source_digest << "\n"
            << "stamp: host_steal_frac=" << fmt_num(steal_frac) << " (since process start)"
            << extra << "\n";
}

// ---- output ---------------------------------------------------------------

void print_result(const std::vector<Metric>& metrics, const Tally& tally,
                  bool correct) {
  std::cout << "metrics:\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << fmt_num(m.value) << " " << m.unit;
    if (!m.note.empty()) std::cout << "  (" << m.note << ")";
    std::cout << "\n";
  }
  std::cout << "answers: attempted=" << tally.attempted << " ok=" << tally.ok
            << " refused=" << tally.refused << " errored=" << tally.errored
            << " wrong=" << tally.wrong << " retries=" << tally.retries
            << " failed_frac=" << fmt_num(tally.failed_frac()) << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << fmt_exact(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void report_errors(const std::vector<std::string>& errors) {
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i) {
    std::cerr << "check failed: " << errors[i] << "\n";
  }
}

// ---- the two modes ---------------------------------------------------------

/// Repetitions of a timed run: for a repeat after the first, every
/// write gets the structural check, and every answer must equal the
/// first repetition's answer at the same stream index (equal streams,
/// fresh stacks).
void check_repeat(const Workload& w, PhaseResult& phase,
                  const std::vector<Answer>& first) {
  auto it = first.begin();
  for (const Answer& a : phase.answers) {
    while (it != first.end() && it->index < a.index) ++it;
    std::string why;
    if (w.is_write(a.index)) {
      why = check_answer(*w.instance_of(a.index), w.request(a.index, 0).request.solver,
                         a.response);
    }
    if (why.empty() && it != first.end() && it->index == a.index &&
        answer_bytes(a.response) != answer_bytes(it->response)) {
      why = "answer differs from the first repetition's";
    }
    if (!why.empty()) {
      if (!a.wrong) ++phase.tally.wrong;
      phase.errors.push_back("request " + std::to_string(a.index) + ": " + why);
    }
  }
}

int run_timed(const Args& a) {
  // kSetupRepeats times: set up a fresh stack, run a third of the
  // measured time on it, tear it down.  Throughput is the median of the
  // repetitions; a burst of load from elsewhere on the machine then
  // moves one repetition, not the result.  A repetition during which the
  // hypervisor stole more than kMaxStealFrac of the VM's CPU time
  // measured the neighbours, not the program: its answers are still
  // checked, its timings are dropped and it is run again (at most
  // kMaxDiscards times and only within kDiscardWindowSeconds; the stamp
  // reports how many).
  std::vector<double> setups, rates;
  double rss_mb = 0.0;
  PhaseResult pooled;
  std::vector<std::vector<double>> rep_latency, rep_insert;
  PrefixStats ps;
  std::vector<Answer> first;
  std::string backends;
  std::size_t discarded = 0;
  double worst_steal = 0.0;
  for (std::size_t rep = 0; rates.size() < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = rep == 0 ? kProcessStart : Clock::now();
    match::parallel::ThreadPool::global();
    const Workload w = make_workload(a.workload, a.seed);
    auto stack = make_stack(w, false);
    const double setup_s = since(t0, Clock::now());
    const auto ticks0 = cpu_ticks();
    PhaseResult phase = run_phase(*stack, w, a.seconds / kSetupRepeats, false);
    const double steal = steal_between(ticks0, cpu_ticks());
    worst_steal = std::max(worst_steal, steal);
    const bool keep = steal <= kMaxStealFrac || discarded == kMaxDiscards ||
                      since(kProcessStart, Clock::now()) > kDiscardWindowSeconds;
    // Through the first kept repetition only: later set-ups reuse a heap
    // the earlier stacks fragmented, which makes the high-water mark drift.
    if (keep && rates.empty()) rss_mb = peak_rss_mb();
    backends = booked_backends(*stack);
    stack.reset();
    if (rep == 0) {
      ps = verify(w, phase);
      pooled.checked = phase.checked;
    } else {
      check_repeat(w, phase, first);
    }
    pooled.tally += phase.tally;
    pooled.errors.insert(pooled.errors.end(), phase.errors.begin(), phase.errors.end());
    if (rep == 0) first = std::move(phase.answers);
    if (!keep) {
      ++discarded;
      continue;
    }
    setups.push_back(setup_s);
    rates.push_back(static_cast<double>(phase.tally.verified_ok()) / phase.elapsed_s);
    auto append = [](auto& to, const auto& from) { to.insert(to.end(), from.begin(), from.end()); };
    append(pooled.latency_ms, phase.latency_ms);
    append(pooled.insert_latency_ms, phase.insert_latency_ms);
    rep_latency.push_back(std::move(phase.latency_ms));
    rep_insert.push_back(std::move(phase.insert_latency_ms));
  }
  print_stamp(a, backends, "",
              " discarded_reps=" + std::to_string(discarded) +
                  " worst_rep_steal_frac=" + fmt_num(worst_steal));
  std::sort(pooled.latency_ms.begin(), pooled.latency_ms.end());
  std::sort(pooled.insert_latency_ms.begin(), pooled.insert_latency_ms.end());

  std::vector<Metric> m;
  const std::string of_reps = "median of " + std::to_string(kSetupRepeats);
  m.push_back({"setup_s", median(setups), "s", of_reps + " set-ups"});
  m.push_back({"throughput_rps", median(rates), "1/s",
               of_reps + " repetitions of verified answers / wall"});
  if (pooled.latency_ms.empty() || pooled.insert_latency_ms.empty()) {
    throw std::runtime_error("no answered requests");
  }
  const double tq = tail_q(a.workload);
  const RunPercentile p50 = rep_percentile(rep_latency, pooled.latency_ms, 0.5);
  const RunPercentile tail = rep_percentile(rep_latency, pooled.latency_ms, tq);
  const RunPercentile ins = rep_percentile(rep_insert, pooled.insert_latency_ms, 0.5);
  m.push_back({"latency_p50_ms", p50.p.value, "ms", pct_note(p50, 0.5)});
  m.push_back({"latency_tail_ms", tail.p.value, "ms", pct_note(tail, tq)});
  m.push_back({"insert_latency_p50_ms", ins.p.value, "ms",
               pct_note(ins, 0.5) + (is_solve(a.workload) ? ", every request inserts"
                                                          : ", write class")});
  m.push_back({"cost_ratio", ps.cost_ratio, "ratio",
               "geomean over the first " + std::to_string(pooled.checked) +
                   " requests vs " +
                   (a.workload == WorkloadId::kTigSolve   ? "min-min"
                    : a.workload == WorkloadId::kDagSolve ? "HEFT"
                                                          : "min-min/HEFT")});
  m.push_back({"peak_rss_mb", rss_mb, "MB", "VmHWM through the first repetition"});

  bool correct = pooled.tally.failed() == 0;
  for (const RunPercentile* p : {&p50, &tail, &ins}) {
    if (!p->p.supported()) {
      std::cerr << "warning: a latency percentile has fewer than "
                << Percentile::kMinBeyond << " samples beyond it\n";
    }
  }
  if (!run_self_tests(std::cerr)) correct = false;
  report_errors(pooled.errors);
  print_result(m, pooled.tally, correct);
  return correct ? 0 : 1;
}

int run_traced(const Args& a) {
  // Untraced reference phase: the base of obs.trace_overhead_frac.
  const Workload w = make_workload(a.workload, a.seed);
  double reference_rps = 0.0;
  Tally total;
  std::vector<std::string> errors;
  {
    auto stack = make_stack(w, false);
    PhaseResult ref = run_phase(*stack, w, a.seconds / 2.0, false);
    reference_rps = static_cast<double>(ref.tally.ok) / ref.elapsed_s;
    total += ref.tally;
    errors.insert(errors.end(), ref.errors.begin(), ref.errors.end());
  }

  const Clock::time_point g0 = Clock::now();
  const Workload tw = make_workload(a.workload, a.seed);
  const double generate_s = since(g0, Clock::now());
  auto stack = make_stack(tw, true);
  const auto stats0 = stack->service->stats();
  const auto counters0 = stack->server->counters();
  const double cpu0 = cpu_seconds();
  PhaseResult phase = run_phase(*stack, tw, a.seconds / 2.0, true);
  const double cpu1 = cpu_seconds();
  const auto stats1 = stack->service->stats();
  const auto counters1 = stack->server->counters();
  const match::obs::MetricsSnapshot snap = stack->service->metrics().snapshot();
  const std::vector<match::obs::SpanTimeline> timelines = stack->recorder->snapshot();

  const PrefixStats ps = verify(tw, phase);
  const Probes probes = run_probes(tw);
  print_stamp(a, booked_backends(*stack), probes.batch_backend, "");
  stack.reset();
  total += phase.tally;
  errors.insert(errors.end(), phase.errors.begin(), phase.errors.end());

  const Sums& sums = phase.sums;
  const double inv_ok = phase.tally.ok ? 1.0 / static_cast<double>(phase.tally.ok) : 0.0;

  // Server stage spans, joined to the client record by wire request id.
  std::map<match::obs::SpanStage, std::pair<double, std::size_t>> stage;
  double covered = 0.0, wall = 0.0;
  std::size_t joined = 0;
  for (const auto& t : timelines) {
    const auto it = phase.joins.find(t.request_id);
    if (it == phase.joins.end()) continue;
    ++joined;
    for (const auto& s : t.spans) {
      auto& [sum, count] = stage[s.stage];
      sum += s.duration_seconds();
      ++count;
    }
    covered += it->second.client_s + t.attributed_seconds();
    wall += it->second.latency_s;
  }
  auto stage_us = [&](match::obs::SpanStage s) {
    const auto it = stage.find(s);
    return it == stage.end() || it->second.second == 0
               ? 0.0
               : 1e6 * it->second.first / static_cast<double>(it->second.second);
  };

  // CE phase time per solver-served request, from the service registry.
  auto phase_s = [&](const char* p) {
    double sum = 0.0;
    for (const char* solver : {"match", "ce"}) {
      const auto it = snap.histograms.find(std::string(solver) + ".phase." + p + "_seconds");
      if (it != snap.histograms.end()) sum += it->second.sum;
    }
    return sums.solved ? sum / static_cast<double>(sums.solved) : 0.0;
  };

  const double hits = static_cast<double>(stats1.cache_hits - stats0.cache_hits);
  const double misses = static_cast<double>(stats1.cache_misses - stats0.cache_misses);
  const double hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  const double refused = static_cast<double>(
      (counters1.shed - counters0.shed) +
      (counters1.rejected_deadline - counters0.rejected_deadline));
  const double traced_rps = static_cast<double>(phase.tally.ok) / phase.elapsed_s;
  const double nproc = std::max(1u, std::thread::hardware_concurrency());

  const std::string joined_note = "FlightRecorder spans, " + std::to_string(joined) + " requests joined by wire id";
  std::vector<Metric> m = {
      {"net.rtt_overhead_us", 1e6 * sums.rtt_overhead_s * inv_ok, "us", "client round trip - MapResponse::total_seconds"},
      {"net.encode_us", 1e6 * sums.encode_s * inv_ok, "us", "benchmark span around net::encode_request"},
      {"net.decode_us", 1e6 * sums.decode_s * inv_ok, "us", "benchmark span around net::decode_header+decode_response"},
      {"net.request_bytes", sums.request_bytes * inv_ok, "B", "encoded request frame size"},
      {"net.stage.decode_us", stage_us(match::obs::SpanStage::kDecode), "us", joined_note},
      {"net.stage.admission_us", stage_us(match::obs::SpanStage::kAdmission), "us", joined_note},
      {"net.stage.encode_us", stage_us(match::obs::SpanStage::kEncode), "us", joined_note},
      {"net.stage.write_flush_us", stage_us(match::obs::SpanStage::kWriteFlush), "us", joined_note},
      {"net.refused", refused, "count", "MatchServer::counters() shed + rejected_deadline"},
      {"net.unknown_instance_retries", static_cast<double>(phase.tally.retries), "count", "client re-sends after kUnknownInstance"},
      {"service.queue_wait_ms", 1e3 * sums.queue_s * inv_ok, "ms", "MapResponse::queue_seconds"},
      {"service.solve_ms", 1e3 * sums.solve_s * inv_ok, "ms", "MapResponse::solve_seconds"},
      {"service.cache_hit_ratio", hit_ratio, "frac", "MappingService::stats() cache hits / lookups"},
      {"service.fingerprint_us", probes.fingerprint_us, "us", "timed service::fingerprint_instance over the workload's inline instances"},
      {"core.draw_s", phase_s("draw"), "s", "match./ce.phase.draw_seconds per solver run"},
      {"core.cost_s", phase_s("cost"), "s", "match./ce.phase.cost_seconds per solver run"},
      {"core.sort_s", phase_s("sort"), "s", "match./ce.phase.sort_seconds per solver run"},
      {"core.update_s", phase_s("update"), "s", "match./ce.phase.update_seconds per solver run"},
      {"core.genperm.draws_per_s", probes.draws_per_s, "1/s", "timed GenPermSampler::sample, alias tables, mid-run matrix"},
      {"core.iterations", static_cast<double>(ps.iterations), "count", "MapResponse::iterations over the stream prefix"},
      {"core.samples", static_cast<double>(ps.samples), "count", "CE iterations x batch size over the stream prefix"},
      {"sim.batch_eval.samples_per_s", probes.batch_eval_samples_per_s, "1/s", "timed BatchEvaluator::evaluate, backend " + probes.batch_backend},
      {"sim.schedule_eval.priority_samples_per_s", probes.priority_samples_per_s, "1/s", "timed ScheduleEvaluator::priority_makespans_batch, backend " + probes.schedule_backend},
      {"parallel.cpu_util", (cpu1 - cpu0) / (phase.elapsed_s * nproc), "frac", "process CPU seconds / (wall x nproc)"},
      {"baselines.list_solve_us", 1e6 * ps.list_solve_s, "us", "timed list_schedule / heft_schedule over the stream prefix"},
      {"workload.generate_s", generate_s, "s", "make_workload"},
      {"obs.trace_overhead_frac", 1.0 - traced_rps / reference_rps, "frac", "1 - traced / untraced answers per second"},
      {"obs.attributed_frac", wall > 0.0 ? covered / wall : 0.0, "frac", "(client encode+decode + server stage spans) / client wall"},
  };

  // Workload sanity: these check the inputs, not which layer is slow.
  bool correct = total.failed() == 0;
  if (is_solve(a.workload)) {
    if (hit_ratio != 0.0) errors.push_back("cache hit ratio is not 0 on a solve workload");
    if (refused != 0.0) errors.push_back("requests were refused on a solve workload");
  } else if (hit_ratio < 0.9) {
    errors.push_back("cache hit ratio below 0.9 on serve-cached");
  }
  if (!errors.empty()) correct = false;
  if (!run_self_tests(std::cerr)) correct = false;
  report_errors(errors);
  print_result(m, total, correct);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    args = perfbench::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "match_perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    if (args.self_test) {
      const bool ok = perfbench::run_self_tests(std::cerr);
      std::cout << "self-test " << (ok ? "passed" : "FAILED") << "\n";
      return ok ? 0 : 1;
    }
    return args.trace ? perfbench::run_traced(args) : perfbench::run_timed(args);
  } catch (const std::exception& e) {
    std::cerr << "match_perfbench: " << e.what() << "\n";
    return 1;
  }
}
