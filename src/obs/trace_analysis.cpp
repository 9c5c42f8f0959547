#include "obs/trace_analysis.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "io/table.hpp"
#include "obs/bench_report.hpp"
#include "obs/json.hpp"

namespace match::obs {

LenientTrace read_jsonl_lenient(std::istream& is) {
  LenientTrace out;
  const JsonlLineCounts counts =
      for_each_jsonl_line(is, [&](std::string_view line) {
        out.events.push_back(from_jsonl(line));
      });
  out.total_lines = counts.total_lines;
  out.skipped_lines = counts.skipped_lines;
  return out;
}

std::size_t RunReport::iterations_to_stability(double eps,
                                               std::size_t window) const {
  if (window == 0) window = 1;
  if (gamma.size() < window + 1) return gamma.size();
  std::size_t quiet = 0;  // consecutive steps with |Δγ| ≤ eps
  for (std::size_t j = 1; j < gamma.size(); ++j) {
    if (std::abs(gamma[j] - gamma[j - 1]) <= eps) {
      if (++quiet >= window) return j + 1;  // 1-based iteration count
    } else {
      quiet = 0;
    }
  }
  return gamma.size();
}

std::size_t RunReport::longest_stall() const {
  std::size_t longest = 0, current = 0;
  for (std::size_t j = 1; j < best.size(); ++j) {
    if (best[j] < best[j - 1]) {
      current = 0;
    } else {
      longest = std::max(longest, ++current);
    }
  }
  return longest;
}

bool RunReport::best_regressed() const {
  for (std::size_t j = 1; j < best.size(); ++j) {
    if (best[j] > best[j - 1]) return true;
  }
  return false;
}

double RunReport::phase_total_seconds() const {
  double total = 0.0;
  for (const auto& [phase, seconds] : phase_seconds) total += seconds;
  return total;
}

const RunReport* TraceReport::find(std::uint64_t run_id) const {
  for (const RunReport& run : runs) {
    if (run.run_id == run_id) return &run;
  }
  return nullptr;
}

double TraceReport::mean_final_best() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const RunReport& run : runs) {
    if (!std::isnan(run.final_best)) {
      sum += run.final_best;
      ++n;
    }
  }
  return n == 0 ? std::numeric_limits<double>::quiet_NaN()
                : sum / static_cast<double>(n);
}

double TraceReport::best_final_best() const {
  double best = std::numeric_limits<double>::quiet_NaN();
  for (const RunReport& run : runs) {
    if (std::isnan(run.final_best)) continue;
    if (std::isnan(best) || run.final_best < best) best = run.final_best;
  }
  return best;
}

std::uint64_t TraceReport::total_iterations() const {
  std::uint64_t total = 0;
  for (const RunReport& run : runs) total += run.iterations;
  return total;
}

TraceReport analyze(const std::vector<Event>& events) {
  TraceReport report;
  report.events = events.size();
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  const auto run_for = [&](const Event& e) -> RunReport& {
    auto [it, inserted] = index_of.emplace(e.run_id, report.runs.size());
    if (inserted) {
      report.runs.emplace_back();
      report.runs.back().run_id = e.run_id;
    }
    RunReport& run = report.runs[it->second];
    // The service's `enqueue` event carries the solver too, but the
    // solver's own events are authoritative; first non-empty name wins.
    if (run.solver.empty() && !e.solver.empty()) run.solver = e.solver;
    return run;
  };

  for (const Event& e : events) {
    RunReport& run = run_for(e);
    switch (e.kind) {
      case EventKind::kIteration:
        ++run.iterations;
        run.gamma.push_back(e.gamma);
        run.best.push_back(e.best_so_far);
        break;
      case EventKind::kPhase:
        run.phase_seconds[e.phase] += e.seconds;
        break;
      case EventKind::kService:
        ++run.service_events;
        break;
      case EventKind::kFallbackDraw:
        ++run.fallback_draws;
        break;
      case EventKind::kRunEnd:
        run.has_run_end = true;
        run.final_best = e.best_so_far;
        run.run_seconds = e.seconds;
        if (e.iteration > 0) run.iterations = e.iteration;
        break;
      case EventKind::kRunStart:
        break;
    }
  }
  for (RunReport& run : report.runs) {
    if (!run.has_run_end && !run.best.empty()) run.final_best = run.best.back();
  }
  return report;
}

TraceReport analyze_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("match_inspect: cannot open '" + path + "'");
  }
  LenientTrace trace = read_jsonl_lenient(in);
  TraceReport report = analyze(trace.events);
  report.total_lines = trace.total_lines;
  report.skipped_lines = trace.skipped_lines;
  return report;
}

double OverloadReport::shed_pct() const {
  if (offered == 0) return 0.0;
  return 100.0 * static_cast<double>(shed) / static_cast<double>(offered);
}

double OverloadReport::mean_served_seconds() const {
  if (served_seconds.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (const double s : served_seconds) sum += s;
  return sum / static_cast<double>(served_seconds.size());
}

double OverloadReport::served_seconds_quantile(double q) const {
  if (served_seconds.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> sorted = served_seconds;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) *
                                static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

OverloadReport summarize_overload(const std::vector<Event>& events) {
  OverloadReport report;
  for (const Event& e : events) {
    if (e.kind != EventKind::kService) continue;
    ++report.action_counts[e.phase];
    if (e.phase == "net.served" || e.phase == "net.served_deadline_missed") {
      ++report.served;
      if (e.phase == "net.served_deadline_missed") {
        ++report.served_deadline_missed;
      }
      report.served_seconds.push_back(e.seconds);
    } else if (e.phase == "net.shed") {
      ++report.shed;
    } else if (e.phase == "net.rejected_deadline") {
      ++report.rejected_deadline;
    } else if (e.phase == "net.bad_request" ||
               e.phase == "net.unknown_instance" ||
               e.phase == "net.server_error") {
      ++report.errors;
    } else {
      // Service lifecycle action (enqueue, cache_hit, ...): counted in
      // `action_counts` above but not a per-request terminal decision.
      continue;
    }
    ++report.offered;
  }
  return report;
}

namespace {

double nearest_rank(std::vector<double> sorted_in_place, double q) {
  if (sorted_in_place.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(sorted_in_place.begin(), sorted_in_place.end());
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) *
                                static_cast<double>(sorted_in_place.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted_in_place[std::min(index, sorted_in_place.size() - 1)];
}

}  // namespace

double SpanReport::totals_quantile(double q) const {
  return nearest_rank(totals, q);
}

SpanReport summarize_spans(const std::vector<SpanTimeline>& timelines) {
  SpanReport report;
  report.requests = timelines.size();

  // One sample per request per stage: a stage stamped twice contributes
  // the sum of its crossings to that request's sample.
  std::map<std::string, std::vector<double>> samples;
  for (const SpanTimeline& tl : timelines) {
    ++report.outcome_counts[tl.outcome];
    report.totals.push_back(tl.total_seconds);
    std::map<std::string, double> per_stage;
    for (const SpanRecord& span : tl.spans) {
      per_stage[to_string(span.stage)] += span.duration_seconds();
    }
    for (const auto& [stage, seconds] : per_stage) {
      samples[stage].push_back(seconds);
    }
  }
  for (auto& [stage, values] : samples) {
    StageStats stats;
    stats.count = values.size();
    for (const double v : values) stats.total_seconds += v;
    std::sort(values.begin(), values.end());
    stats.max = values.back();
    stats.p50 = nearest_rank(values, 0.50);
    stats.p90 = nearest_rank(values, 0.90);
    stats.p99 = nearest_rank(values, 0.99);
    report.stages.emplace(stage, stats);
  }

  if (timelines.empty()) return report;

  // The tail: every request at or above the p99 of end-to-end latency
  // (nearest-rank, so at least one request always qualifies).
  report.tail_threshold_seconds = report.totals_quantile(0.99);
  double attributed_fraction_sum = 0.0;
  std::size_t attributable = 0;
  double tail_queue = 0.0;
  double tail_solve = 0.0;
  for (const SpanTimeline& tl : timelines) {
    if (tl.total_seconds < report.tail_threshold_seconds) continue;
    ++report.tail_requests;
    const SpanRecord* dominant = nullptr;
    std::map<std::string, double> per_stage;
    for (const SpanRecord& span : tl.spans) {
      per_stage[to_string(span.stage)] += span.duration_seconds();
      if (dominant == nullptr ||
          span.duration_seconds() > dominant->duration_seconds()) {
        dominant = &span;
      }
    }
    if (dominant != nullptr) {
      ++report.tail_dominant_stage[to_string(dominant->stage)];
    }
    if (tl.total_seconds > 0.0) {
      attributed_fraction_sum += tl.attributed_seconds() / tl.total_seconds;
      ++attributable;
    }
    tail_queue += per_stage[to_string(SpanStage::kQueueWait)];
    tail_solve += per_stage[to_string(SpanStage::kSolve)];
  }
  if (attributable > 0) {
    report.tail_attributed_fraction =
        attributed_fraction_sum / static_cast<double>(attributable);
  }
  if (tail_queue + tail_solve > 0.0) {
    report.tail_queue_vs_solve_pct =
        100.0 * tail_queue / (tail_queue + tail_solve);
  }
  return report;
}

TraceDiff diff_traces(const TraceReport& a, const TraceReport& b,
                      const DiffOptions& options) {
  TraceDiff diff;
  diff.makespan_a = a.mean_final_best();
  diff.makespan_b = b.mean_final_best();
  if (!std::isnan(diff.makespan_a) && !std::isnan(diff.makespan_b) &&
      diff.makespan_a != 0.0) {
    diff.makespan_delta_pct =
        100.0 * (diff.makespan_b - diff.makespan_a) / diff.makespan_a;
    diff.makespan_regressed =
        diff.makespan_delta_pct > options.makespan_tolerance_pct;
  } else if (std::isnan(diff.makespan_a) != std::isnan(diff.makespan_b)) {
    // One trace finished runs and the other finished none: treat a
    // candidate that lost all results as regressed.
    diff.makespan_regressed = std::isnan(diff.makespan_b);
  }
  diff.iterations_a = a.total_iterations();
  diff.iterations_b = b.total_iterations();
  if (diff.iterations_a > 0) {
    diff.iterations_delta_pct =
        100.0 *
        (static_cast<double>(diff.iterations_b) -
         static_cast<double>(diff.iterations_a)) /
        static_cast<double>(diff.iterations_a);
    diff.iterations_regressed =
        diff.iterations_delta_pct > options.iterations_tolerance_pct;
  }
  return diff;
}

// ------------------------------------------------------------------ CLI

namespace {

bool parse_double_arg(const std::string& s, double& out) {
  const char* begin = s.data();
  const char* end = begin + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

int usage(std::ostream& err) {
  err << "usage:\n"
         "  match_inspect summary <trace.jsonl> [--stability-eps E] "
         "[--stability-window W]\n"
         "  match_inspect diff <baseline.jsonl> <candidate.jsonl> "
         "[--makespan-tol PCT] [--iterations-tol PCT]\n"
         "  match_inspect overload <trace.jsonl> [--max-shed-pct PCT] "
         "[--json]\n"
         "  match_inspect spans <spans.jsonl> [--max-stage-p99 "
         "[STAGE:]SECONDS]...\n"
         "                [--min-tail-attribution PCT] [--json]\n"
         "\n"
         "summary: per-run convergence report (gamma trajectory, "
         "iterations-to-stability,\n"
         "         phase time breakdown, stall/regression detection); "
         "exit 1 when any run's\n"
         "         best-so-far regressed within its own trace.\n"
         "diff:    compares candidate against baseline; exit 1 on "
         "makespan or\n"
         "         iteration-count regression beyond the tolerance.\n"
         "overload: admission accounting from a server trace (per-action"
         " counts,\n"
         "         shed fraction, served-latency distribution); with "
         "--max-shed-pct,\n"
         "         exit 1 when the shed fraction exceeds the gate.\n"
         "spans:   per-stage latency breakdown and tail attribution from"
         " a span trace\n"
         "         (match_server --span-trace); --max-stage-p99 gates "
         "one stage's p99\n"
         "         (or every stage's, with no STAGE:), "
         "--min-tail-attribution gates the\n"
         "         fraction of p99-tail latency explained by named "
         "stages; exit 1 on\n"
         "         any gate violation.\n"
         "\n"
         "--json: machine-readable BenchReport JSON on stdout "
         "(overload/spans only).\n";
  return 2;
}

std::string fmt_or_dash(double v, int precision = 6) {
  return std::isnan(v) ? "-" : io::Table::num(v, precision);
}

void print_skip_note(const TraceReport& report, std::ostream& out) {
  if (report.skipped_lines > 0) {
    out << "note: skipped " << report.skipped_lines << " malformed line(s) of "
        << report.total_lines << "\n";
  }
}

int cmd_summary(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  std::string path;
  double eps = 1e-6;
  double window = 5;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--stability-eps" && i + 1 < args.size()) {
      if (!parse_double_arg(args[++i], eps)) return usage(err);
    } else if (args[i] == "--stability-window" && i + 1 < args.size()) {
      if (!parse_double_arg(args[++i], window) || window < 1) return usage(err);
    } else if (!args[i].empty() && args[i][0] == '-') {
      return usage(err);
    } else if (path.empty()) {
      path = args[i];
    } else {
      return usage(err);
    }
  }
  if (path.empty()) return usage(err);

  TraceReport report;
  try {
    report = analyze_file(path);
  } catch (const std::exception& e) {
    err << e.what() << "\n";
    return 2;
  }

  out << "== " << path << ": " << report.events << " events, "
      << report.runs.size() << " run(s) ==\n";
  print_skip_note(report, out);

  io::Table table({"run", "solver", "iters", "iters->stable", "final best",
                   "stall", "run (s)", "draw %", "cost %", "sort %",
                   "update %"});
  bool any_regressed = false;
  for (const RunReport& run : report.runs) {
    const double phase_total = run.phase_total_seconds();
    const auto pct = [&](const char* phase) -> std::string {
      const auto it = run.phase_seconds.find(phase);
      if (it == run.phase_seconds.end() || phase_total <= 0.0) return "-";
      return io::Table::num(100.0 * it->second / phase_total, 3);
    };
    any_regressed |= run.best_regressed();
    table.add_row(
        {std::to_string(run.run_id), run.solver.empty() ? "-" : run.solver,
         std::to_string(run.iterations),
         run.gamma.empty()
             ? "-"
             : std::to_string(run.iterations_to_stability(
                   eps, static_cast<std::size_t>(window))),
         fmt_or_dash(run.final_best), std::to_string(run.longest_stall()),
         run.run_seconds > 0.0 ? io::Table::num(run.run_seconds, 4) : "-",
         pct("draw"), pct("cost"), pct("sort"), pct("update")});
  }
  table.print(out);

  out << "\ntotals: " << report.total_iterations() << " iterations; mean final"
      << " best " << fmt_or_dash(report.mean_final_best()) << "; best "
      << fmt_or_dash(report.best_final_best()) << "\n";
  for (const RunReport& run : report.runs) {
    if (run.fallback_draws > 0) {
      out << "warning: run " << run.run_id << " answered with "
          << run.fallback_draws << " deadline-starved fallback draw(s)\n";
    }
    if (run.best_regressed()) {
      out << "REGRESSION: run " << run.run_id
          << " best-so-far increased within its own trace (corrupt trace or"
             " solver bug)\n";
    }
  }
  return any_regressed ? 1 : 0;
}

int cmd_diff(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  std::vector<std::string> paths;
  DiffOptions options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--makespan-tol" && i + 1 < args.size()) {
      if (!parse_double_arg(args[++i], options.makespan_tolerance_pct)) {
        return usage(err);
      }
    } else if (args[i] == "--iterations-tol" && i + 1 < args.size()) {
      if (!parse_double_arg(args[++i], options.iterations_tolerance_pct)) {
        return usage(err);
      }
    } else if (!args[i].empty() && args[i][0] == '-') {
      return usage(err);
    } else {
      paths.push_back(args[i]);
    }
  }
  if (paths.size() != 2) return usage(err);

  TraceReport baseline, candidate;
  try {
    baseline = analyze_file(paths[0]);
    candidate = analyze_file(paths[1]);
  } catch (const std::exception& e) {
    err << e.what() << "\n";
    return 2;
  }
  print_skip_note(baseline, out);
  print_skip_note(candidate, out);

  const TraceDiff diff = diff_traces(baseline, candidate, options);
  io::Table table({"metric", "baseline", "candidate", "delta %", "tolerance %",
                   "verdict"});
  table.add_row({"mean final best", fmt_or_dash(diff.makespan_a),
                 fmt_or_dash(diff.makespan_b),
                 io::Table::num(diff.makespan_delta_pct, 4),
                 io::Table::num(options.makespan_tolerance_pct, 4),
                 diff.makespan_regressed ? "REGRESSED" : "ok"});
  table.add_row({"total iterations", std::to_string(diff.iterations_a),
                 std::to_string(diff.iterations_b),
                 io::Table::num(diff.iterations_delta_pct, 4),
                 io::Table::num(options.iterations_tolerance_pct, 4),
                 diff.iterations_regressed ? "REGRESSED" : "ok"});
  table.print(out);
  out << "\n" << (diff.regressed() ? "REGRESSION" : "OK") << "\n";
  return diff.regressed() ? 1 : 0;
}

int cmd_overload(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  std::string path;
  double max_shed_pct = std::numeric_limits<double>::quiet_NaN();  // no gate
  bool json = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--max-shed-pct" && i + 1 < args.size()) {
      if (!parse_double_arg(args[++i], max_shed_pct) || max_shed_pct < 0) {
        return usage(err);
      }
    } else if (args[i] == "--json") {
      json = true;
    } else if (!args[i].empty() && args[i][0] == '-') {
      return usage(err);
    } else if (path.empty()) {
      path = args[i];
    } else {
      return usage(err);
    }
  }
  if (path.empty()) return usage(err);

  std::ifstream in(path);
  if (!in) {
    err << "match_inspect: cannot open '" << path << "'\n";
    return 2;
  }
  const LenientTrace trace = read_jsonl_lenient(in);
  const OverloadReport report = summarize_overload(trace.events);
  const bool gated =
      !std::isnan(max_shed_pct) && report.shed_pct() > max_shed_pct;

  if (json) {
    // Machine-readable path: the BenchReport schema CI already parses
    // for every BENCH_<name>.json — human notes go to err only.
    if (trace.skipped_lines > 0) {
      err << "note: skipped " << trace.skipped_lines
          << " malformed line(s) of " << trace.total_lines << "\n";
    }
    bench::BenchReport bench;
    bench.name = "match_inspect_overload";
    bench.git_sha = bench::current_git_sha();
    bench.config["trace"] = path;
    if (!std::isnan(max_shed_pct)) {
      bench.config["max_shed_pct"] = io::Table::num(max_shed_pct, 6);
    }
    bench.counters = report.action_counts;
    bench::BenchCase c;
    c.name = "overload";
    c.metrics["offered"] = static_cast<double>(report.offered);
    c.metrics["served"] = static_cast<double>(report.served);
    c.metrics["served_deadline_missed"] =
        static_cast<double>(report.served_deadline_missed);
    c.metrics["shed"] = static_cast<double>(report.shed);
    c.metrics["rejected_deadline"] =
        static_cast<double>(report.rejected_deadline);
    c.metrics["errors"] = static_cast<double>(report.errors);
    c.metrics["shed_pct"] = report.shed_pct();
    if (!report.served_seconds.empty()) {
      c.metrics["served_mean_seconds"] = report.mean_served_seconds();
      c.metrics["served_p50_seconds"] = report.served_seconds_quantile(0.5);
      c.metrics["served_p99_seconds"] = report.served_seconds_quantile(0.99);
      c.metrics["served_max_seconds"] = report.served_seconds_quantile(1.0);
    }
    c.metrics["gate_violated"] = gated ? 1.0 : 0.0;
    bench.cases.push_back(std::move(c));
    out << bench.to_json() << "\n";
    return gated ? 1 : 0;
  }

  out << "== " << path << ": " << report.offered << " request(s) offered ==\n";
  if (trace.skipped_lines > 0) {
    out << "note: skipped " << trace.skipped_lines << " malformed line(s) of "
        << trace.total_lines << "\n";
  }

  io::Table table({"action", "count", "% of offered"});
  for (const auto& [action, count] : report.action_counts) {
    const bool terminal = action.rfind("net.", 0) == 0;
    table.add_row({action, std::to_string(count),
                   terminal && report.offered > 0
                       ? io::Table::num(100.0 * static_cast<double>(count) /
                                            static_cast<double>(report.offered),
                                        3)
                       : "-"});
  }
  table.print(out);

  out << "\nserved " << report.served << " ("
      << report.served_deadline_missed << " past deadline), shed "
      << report.shed << " (" << io::Table::num(report.shed_pct(), 3)
      << "%), rejected " << report.rejected_deadline << ", errors "
      << report.errors << "\n";
  if (!report.served_seconds.empty()) {
    out << "served latency: mean "
        << fmt_or_dash(report.mean_served_seconds()) << "s, p50 "
        << fmt_or_dash(report.served_seconds_quantile(0.5)) << "s, p99 "
        << fmt_or_dash(report.served_seconds_quantile(0.99)) << "s, max "
        << fmt_or_dash(report.served_seconds_quantile(1.0)) << "s\n";
  }

  if (gated) {
    out << "OVERLOAD REGRESSION: shed " << io::Table::num(report.shed_pct(), 3)
        << "% > gate " << io::Table::num(max_shed_pct, 3) << "%\n";
    return 1;
  }
  return 0;
}

/// One `--max-stage-p99` gate: `SECONDS` (all stages) or `STAGE:SECONDS`.
struct StageGate {
  std::string stage;  ///< "" = every stage present in the trace
  double max_p99_seconds = 0.0;
};

int cmd_spans(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  std::string path;
  std::vector<StageGate> gates;
  double min_tail_attribution_pct =
      std::numeric_limits<double>::quiet_NaN();  // no gate
  bool json = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--max-stage-p99" && i + 1 < args.size()) {
      const std::string& spec = args[++i];
      StageGate gate;
      const std::size_t colon = spec.find(':');
      std::string seconds_part = spec;
      if (colon != std::string::npos) {
        gate.stage = spec.substr(0, colon);
        seconds_part = spec.substr(colon + 1);
        try {
          (void)parse_span_stage(gate.stage);
        } catch (const std::exception&) {
          err << "match_inspect: unknown stage '" << gate.stage << "'\n";
          return 2;
        }
      }
      if (!parse_double_arg(seconds_part, gate.max_p99_seconds) ||
          gate.max_p99_seconds < 0) {
        return usage(err);
      }
      gates.push_back(std::move(gate));
    } else if (args[i] == "--min-tail-attribution" && i + 1 < args.size()) {
      if (!parse_double_arg(args[++i], min_tail_attribution_pct) ||
          min_tail_attribution_pct < 0 || min_tail_attribution_pct > 100) {
        return usage(err);
      }
    } else if (args[i] == "--json") {
      json = true;
    } else if (!args[i].empty() && args[i][0] == '-') {
      return usage(err);
    } else if (path.empty()) {
      path = args[i];
    } else {
      return usage(err);
    }
  }
  if (path.empty()) return usage(err);

  std::ifstream in(path);
  if (!in) {
    err << "match_inspect: cannot open '" << path << "'\n";
    return 2;
  }
  const SpanTrace trace = read_span_jsonl_lenient(in);
  const SpanReport report = summarize_spans(trace.timelines);

  // Gates.  An empty trace with gates configured fails loudly: "no
  // data" must never read as "all gates green" in CI.
  std::vector<std::string> violations;
  const bool has_gates =
      !gates.empty() || !std::isnan(min_tail_attribution_pct);
  if (report.requests == 0 && has_gates) {
    violations.push_back("trace contains no span timelines");
  }
  for (const StageGate& gate : gates) {
    for (const auto& [stage, stats] : report.stages) {
      if (!gate.stage.empty() && stage != gate.stage) continue;
      if (stats.p99 > gate.max_p99_seconds) {
        violations.push_back("stage " + stage + " p99 " +
                             io::Table::num(stats.p99, 6) + "s > gate " +
                             io::Table::num(gate.max_p99_seconds, 6) + "s");
      }
    }
  }
  if (!std::isnan(min_tail_attribution_pct) && report.requests > 0) {
    const double pct = 100.0 * report.tail_attributed_fraction;
    if (std::isnan(pct) || pct < min_tail_attribution_pct) {
      violations.push_back(
          "tail attribution " + fmt_or_dash(pct, 3) + "% < gate " +
          io::Table::num(min_tail_attribution_pct, 3) + "%");
    }
  }

  if (json) {
    if (trace.skipped_lines > 0) {
      err << "note: skipped " << trace.skipped_lines
          << " malformed line(s) of " << trace.total_lines << "\n";
    }
    bench::BenchReport bench;
    bench.name = "match_inspect_spans";
    bench.git_sha = bench::current_git_sha();
    bench.config["trace"] = path;
    if (!std::isnan(min_tail_attribution_pct)) {
      bench.config["min_tail_attribution_pct"] =
          io::Table::num(min_tail_attribution_pct, 6);
    }
    for (const auto& [outcome, count] : report.outcome_counts) {
      bench.counters["outcome." + outcome] = count;
    }
    for (const auto& [stage, count] : report.tail_dominant_stage) {
      bench.counters["tail_dominant." + stage] = count;
    }
    for (const auto& [stage, stats] : report.stages) {
      bench::BenchCase c;
      c.name = "stage." + stage;
      c.wall_seconds = stats.total_seconds;
      c.metrics["count"] = static_cast<double>(stats.count);
      c.metrics["mean_seconds"] = stats.mean();
      c.metrics["p50_seconds"] = stats.p50;
      c.metrics["p90_seconds"] = stats.p90;
      c.metrics["p99_seconds"] = stats.p99;
      c.metrics["max_seconds"] = stats.max;
      bench.cases.push_back(std::move(c));
    }
    bench::BenchCase tail;
    tail.name = "tail";
    tail.metrics["requests"] = static_cast<double>(report.requests);
    tail.metrics["tail_requests"] = static_cast<double>(report.tail_requests);
    tail.metrics["threshold_seconds"] = report.tail_threshold_seconds;
    tail.metrics["attributed_fraction"] = report.tail_attributed_fraction;
    tail.metrics["queue_vs_solve_pct"] = report.tail_queue_vs_solve_pct;
    tail.metrics["total_p50_seconds"] = report.totals_quantile(0.5);
    tail.metrics["total_p99_seconds"] = report.totals_quantile(0.99);
    tail.metrics["gate_violations"] = static_cast<double>(violations.size());
    bench.cases.push_back(std::move(tail));
    out << bench.to_json() << "\n";
    for (const std::string& v : violations) err << "SPAN GATE: " << v << "\n";
    return violations.empty() ? 0 : 1;
  }

  out << "== " << path << ": " << report.requests
      << " request timeline(s) ==\n";
  if (trace.skipped_lines > 0) {
    out << "note: skipped " << trace.skipped_lines << " malformed line(s) of "
        << trace.total_lines << "\n";
  }

  io::Table table({"stage", "count", "mean (s)", "p50 (s)", "p90 (s)",
                   "p99 (s)", "max (s)"});
  for (const auto& [stage, stats] : report.stages) {
    table.add_row({stage, std::to_string(stats.count),
                   fmt_or_dash(stats.mean()), fmt_or_dash(stats.p50),
                   fmt_or_dash(stats.p90), fmt_or_dash(stats.p99),
                   fmt_or_dash(stats.max)});
  }
  table.print(out);

  out << "\nend-to-end: p50 " << fmt_or_dash(report.totals_quantile(0.5))
      << "s, p99 " << fmt_or_dash(report.totals_quantile(0.99)) << "s, max "
      << fmt_or_dash(report.totals_quantile(1.0)) << "s\n";
  out << "outcomes:";
  for (const auto& [outcome, count] : report.outcome_counts) {
    out << " " << (outcome.empty() ? "(none)" : outcome) << "=" << count;
  }
  out << "\n";
  if (report.tail_requests > 0) {
    out << "tail (total >= " << fmt_or_dash(report.tail_threshold_seconds)
        << "s, " << report.tail_requests << " request(s)): attribution "
        << fmt_or_dash(100.0 * report.tail_attributed_fraction, 3)
        << "% of latency in named stages";
    if (!std::isnan(report.tail_queue_vs_solve_pct)) {
      out << "; queue-wait "
          << fmt_or_dash(report.tail_queue_vs_solve_pct, 3)
          << "% of queue+solve";
    }
    out << "\n";
    out << "tail dominant stage:";
    for (const auto& [stage, count] : report.tail_dominant_stage) {
      out << " " << stage << "=" << count;
    }
    out << "\n";
  }

  for (const std::string& v : violations) {
    out << "SPAN GATE VIOLATION: " << v << "\n";
  }
  return violations.empty() ? 0 : 1;
}

}  // namespace

int run_inspect_cli(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err) {
  if (args.empty()) return usage(err);
  const std::string& command = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (command == "summary") return cmd_summary(rest, out, err);
  if (command == "diff") return cmd_diff(rest, out, err);
  if (command == "overload") return cmd_overload(rest, out, err);
  if (command == "spans") return cmd_spans(rest, out, err);
  return usage(err);
}

}  // namespace match::obs
