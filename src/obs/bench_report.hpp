#pragma once

// Machine-readable benchmark reports: the perf-trajectory artifact.
//
// Lives in `src/obs/` (it started next to the benches) because the
// schema is shared by more than the bench binaries now: every bench
// writes a `BENCH_<name>.json`, and `match_inspect --json` emits the
// same schema so CI consumes one report format everywhere.  Successive
// commits accumulate a comparable series:
//
//   {
//     "name": "ext_obs_overhead",
//     "git_sha": "0123abcd4567",
//     "schema_version": 1,
//     "config": {"n": "30", "reps": "8"},
//     "cases": [
//       {"name": "no observer", "wall_seconds": 0.41,
//        "metrics": {"best_cost": 1234.5}},
//       ...
//     ],
//     "counters": {"service.completed": 160},
//     "gauges": {},
//     "histograms": {
//       "service.latency_seconds":
//         {"count": 160, "sum": 1.25, "mean": ...,
//          "p50": ..., "p90": ..., "p99": ...}
//     }
//   }
//
// `config` holds the protocol knobs (string-valued, so "--full" /
// size lists round-trip verbatim); `cases` one entry per measured
// configuration; the counters/gauges/histograms trio is an optional
// `obs::MetricsSnapshot` so a bench can attach the solver metrics of
// its run.  The report is written and read by the obs layer's one JSON
// codec (obs/json.hpp), the same one event and span lines use: doubles
// serialize in shortest round-trip form and `from_json` parses them
// back exactly, which the schema round-trip test
// (tests/bench_report_test.cpp) pins.

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace match::bench {

struct BenchCase {
  std::string name;
  double wall_seconds = 0.0;
  /// Additional numeric results (requests/sec, best cost, overhead %...).
  std::map<std::string, double> metrics;

  bool operator==(const BenchCase&) const = default;
};

struct BenchReport {
  static constexpr int kSchemaVersion = 1;

  std::string name;     ///< bench binary name; file becomes BENCH_<name>.json
  std::string git_sha;  ///< fill with current_git_sha() (or leave "unknown")
  std::map<std::string, std::string> config;
  std::vector<BenchCase> cases;

  // Optional solver/service metrics snapshot (histograms keep their
  // summary stats; bucket arrays are an exposition concern, not a
  // trajectory one, and are not serialized).
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, obs::HistogramStats> histograms;

  void attach_snapshot(const obs::MetricsSnapshot& snapshot);

  std::string to_json() const;

  /// Inverse of `to_json`; throws `std::invalid_argument` on malformed
  /// input.  Unknown keys are ignored so the schema may grow.
  static BenchReport from_json(std::string_view json);

  /// Writes `BENCH_<name>.json` under `dir` and returns the path.
  /// Throws `std::runtime_error` when the file cannot be written.
  std::string write(const std::string& dir = ".") const;
};

/// `$MATCH_GIT_SHA` when set (CI pins the exact sha), else
/// `git rev-parse --short=12 HEAD`, else "unknown".
std::string current_git_sha();

}  // namespace match::bench
