#pragma once

// Post-hoc analysis of JSONL event traces (the files JsonlSink writes).
//
// The analyzer is built for operations: `read_jsonl_lenient` parses
// each line with `from_jsonl` and skips-and-counts the malformed or
// truncated ones (a server killed mid-write leaves a torn last line) —
// the same loop `read_span_jsonl_lenient` runs over span lines
// (`for_each_jsonl_line`, obs/json.hpp) — and `analyze` folds the
// surviving events into per-run
// convergence reports — γ trajectory, iterations-to-stability in the
// sense of the paper's stopping rule (eq. 12: the trajectory stops
// moving for a window of consecutive iterations), per-phase time
// breakdown from the draw/cost/sort/update phase events, and
// stall/regression detection.
//
// `diff_traces` compares two reports (baseline vs candidate) and flags
// makespan or iteration-count regressions beyond a threshold — the
// contract `match_inspect diff` turns into an exit status, making traces
// a CI-gateable artifact.
//
// `summarize_spans` does the same for span traces (obs/spans.hpp, the
// files `match_server --span-trace` writes): per-stage latency
// distributions and tail-latency attribution — which stage each p99
// request spent its time in — behind `match_inspect spans`, gateable
// with `--max-stage-p99` / `--min-tail-attribution`.
//
// `run_inspect_cli` is the whole `tools/match_inspect` CLI behind a
// testable interface: tests drive argv vectors through it and assert on
// the exit code without spawning a process.

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "obs/events.hpp"
#include "obs/spans.hpp"

namespace match::obs {

struct LenientTrace {
  std::vector<Event> events;
  std::size_t total_lines = 0;    ///< non-blank lines seen
  std::size_t skipped_lines = 0;  ///< malformed lines skipped (never throws)
};

/// Reads a JSONL trace, skipping (and counting) lines `from_jsonl`
/// rejects.  Garbage, truncation, and binary junk all land in
/// `skipped_lines`; the reader itself never throws.
LenientTrace read_jsonl_lenient(std::istream& is);

/// Everything the analyzer derives about one solver run (one `run` id).
struct RunReport {
  std::uint64_t run_id = 0;
  std::string solver;

  std::vector<double> gamma;  ///< γ_k per iteration event, in trace order
  std::vector<double> best;   ///< best-so-far per iteration event
  std::uint64_t iterations = 0;
  bool has_run_end = false;
  /// Best cost at the end of the run: the `run_end` payload when
  /// present, else the last iteration's best-so-far.  NaN when the run
  /// has neither (e.g. a service-only run id).
  double final_best = std::numeric_limits<double>::quiet_NaN();
  double run_seconds = 0.0;  ///< from `run_end`; 0 when absent

  std::map<std::string, double> phase_seconds;  ///< phase → total seconds
  std::size_t fallback_draws = 0;
  std::size_t service_events = 0;

  /// Iterations until the γ trajectory stops moving (eq. 12 reading):
  /// the smallest k such that |γ_j − γ_{j−1}| ≤ eps for `window`
  /// consecutive steps ending at k.  Returns `gamma.size()` when the
  /// trajectory never stabilizes (or is shorter than the window).
  std::size_t iterations_to_stability(double eps = 1e-6,
                                      std::size_t window = 5) const;

  /// Longest run of consecutive iterations with no improvement in
  /// best-so-far.  Long stalls flag a solver spinning without progress.
  std::size_t longest_stall() const;

  /// True when best-so-far ever *increases* along the trace — impossible
  /// for a correct solver, so it flags trace corruption or a solver bug.
  bool best_regressed() const;

  double phase_total_seconds() const;
};

struct TraceReport {
  std::vector<RunReport> runs;  ///< ordered by first appearance
  std::size_t events = 0;
  std::size_t total_lines = 0;
  std::size_t skipped_lines = 0;

  const RunReport* find(std::uint64_t run_id) const;

  /// Mean of `final_best` over runs that have one (the CI-gated
  /// makespan statistic); NaN when no run finished.
  double mean_final_best() const;
  /// Minimum `final_best` over runs that have one; NaN when none.
  double best_final_best() const;
  std::uint64_t total_iterations() const;
};

TraceReport analyze(const std::vector<Event>& events);

/// Lenient read + analyze.  Throws `std::runtime_error` only when the
/// file cannot be opened; content problems are counted, not thrown.
TraceReport analyze_file(const std::string& path);

/// Aggregate view of the admission/service events in a trace: every
/// `kService` event counted by action, with the terminal `net.*`
/// decisions (exactly one per request, emitted by `MatchServer::finish`)
/// also folded into offered/served/shed totals plus the served-latency
/// distribution.  `match_inspect overload` prints this and can gate CI
/// on the shed fraction.
struct OverloadReport {
  /// Every `kService` action seen → occurrence count.  Terminal network
  /// decisions carry a `net.` prefix; service lifecycle actions
  /// (enqueue, cache_hit, coalesced, ...) are unprefixed.
  std::map<std::string, std::uint64_t> action_counts;

  std::uint64_t offered = 0;  ///< terminal `net.*` decisions
  std::uint64_t served = 0;   ///< net.served + net.served_deadline_missed
  std::uint64_t served_deadline_missed = 0;  ///< subset of `served`
  std::uint64_t shed = 0;
  std::uint64_t rejected_deadline = 0;
  /// net.bad_request + net.unknown_instance + net.server_error.
  std::uint64_t errors = 0;

  /// Request latency (`seconds`) of every served request, trace order.
  std::vector<double> served_seconds;

  double shed_pct() const;  ///< 100·shed/offered; 0 when nothing offered

  double mean_served_seconds() const;  ///< NaN when nothing was served

  /// Nearest-rank quantile of the served latencies (q in [0, 1]); NaN
  /// when nothing was served.
  double served_seconds_quantile(double q) const;
};

/// Folds the `kService` events of a trace into an `OverloadReport`;
/// every other event kind is ignored.
OverloadReport summarize_overload(const std::vector<Event>& events);

/// Latency distribution of one pipeline stage across a span trace.
struct StageStats {
  std::size_t count = 0;         ///< timelines that crossed this stage
  double total_seconds = 0.0;    ///< sum of stage durations
  double p50 = std::numeric_limits<double>::quiet_NaN();
  double p90 = std::numeric_limits<double>::quiet_NaN();
  double p99 = std::numeric_limits<double>::quiet_NaN();
  double max = std::numeric_limits<double>::quiet_NaN();

  double mean() const {
    return count == 0 ? std::numeric_limits<double>::quiet_NaN()
                      : total_seconds / static_cast<double>(count);
  }
};

/// Tail-latency attribution over a span trace (`match_inspect spans`):
/// per-stage latency distributions, plus — for the requests at or above
/// the p99 of end-to-end latency — which stage dominated each one and
/// how much of their time named stages explain at all.
struct SpanReport {
  std::size_t requests = 0;  ///< timelines analyzed

  /// Stage name (`to_string(SpanStage)`) → distribution.  A stage a
  /// request stamped twice contributes the *sum* of its crossings to
  /// that request's sample (one sample per request per stage).
  std::map<std::string, StageStats> stages;

  /// Terminal outcome ("net.served", "net.shed", ...) → count.
  std::map<std::string, std::uint64_t> outcome_counts;

  /// End-to-end (`total_seconds`) latencies, trace order.
  std::vector<double> totals;

  /// p99 (nearest-rank) of `totals`; the tail is every request with
  /// total >= this.  NaN when the trace is empty.
  double tail_threshold_seconds = std::numeric_limits<double>::quiet_NaN();
  std::size_t tail_requests = 0;

  /// Stage name → number of tail requests whose single largest span is
  /// that stage.  Under queue-driven overload this is dominated by
  /// "queue_wait"; under solver-driven load by "solve".
  std::map<std::string, std::uint64_t> tail_dominant_stage;

  /// Mean over the tail of attributed/total — the fraction of each tail
  /// request's latency that named stages explain (the rest is hand-off:
  /// outbox crossing, wakeup latency).  NaN when the tail is empty.
  double tail_attributed_fraction = std::numeric_limits<double>::quiet_NaN();

  /// 100 · Σ queue_wait / (Σ queue_wait + Σ solve) over the *tail* —
  /// the queue-vs-solve attribution a capacity decision turns on.  NaN
  /// when the tail never crossed either stage.
  double tail_queue_vs_solve_pct = std::numeric_limits<double>::quiet_NaN();

  /// Nearest-rank quantile of `totals` (q in [0, 1]); NaN when empty.
  double totals_quantile(double q) const;
};

SpanReport summarize_spans(const std::vector<SpanTimeline>& timelines);

struct DiffOptions {
  /// Candidate mean final best may exceed the baseline's by this many
  /// percent before the diff counts as a makespan regression.
  double makespan_tolerance_pct = 0.5;
  /// Candidate total iterations may exceed the baseline's by this many
  /// percent before the diff counts as an iteration-count regression.
  double iterations_tolerance_pct = 20.0;
};

struct TraceDiff {
  double makespan_a = 0.0;
  double makespan_b = 0.0;
  double makespan_delta_pct = 0.0;  ///< 100·(b−a)/a; 0 when a is NaN/0
  std::uint64_t iterations_a = 0;
  std::uint64_t iterations_b = 0;
  double iterations_delta_pct = 0.0;
  bool makespan_regressed = false;
  bool iterations_regressed = false;

  bool regressed() const { return makespan_regressed || iterations_regressed; }
};

/// a = baseline, b = candidate.
TraceDiff diff_traces(const TraceReport& a, const TraceReport& b,
                      const DiffOptions& options = {});

/// The `match_inspect` CLI: `args` excludes the program name.  Returns
/// the process exit code: 0 ok, 1 regression detected, 2 usage/IO error.
int run_inspect_cli(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err);

}  // namespace match::obs
