#include "selftest.hpp"

#include <cmath>
#include <string>
#include <vector>

#include "bench_stats.hpp"
#include "net/wire.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Checker {
  std::ostream& log;
  bool ok = true;
  void expect(bool cond, const std::string& what) {
    if (!cond) {
      log << "self-test FAILED: " << what << "\n";
      ok = false;
    }
  }
};

std::vector<std::string> stream_frames(WorkloadId id, std::uint64_t seed,
                                       std::size_t count) {
  const Workload w = make_workload(id, seed);
  std::vector<std::string> frames;
  for (std::uint64_t i = 0; i < count; ++i) {
    frames.push_back(match::net::encode_request(w.request(i, i + 1)));
  }
  return frames;
}

void check_percentiles(Checker& c) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Percentile p50 = percentile(v, 0.5);
  c.expect(p50.value == 50.0 && p50.count == 100 && p50.beyond == 50,
           "p50 of 1..100 is 50 with 50 beyond");
  const Percentile p90 = percentile(v, 0.9);
  c.expect(p90.value == 90.0 && p90.beyond == 10 && p90.supported(),
           "p90 of 1..100 is 90 with exactly 10 beyond");
  const Percentile p99 = percentile(v, 0.99);
  c.expect(p99.value == 99.0 && p99.beyond == 1 && !p99.supported(),
           "p99 of 100 samples is unsupported");
  const Percentile one = percentile({7.0}, 0.5);
  c.expect(one.value == 7.0 && one.beyond == 0, "single-sample percentile");
  c.expect(samples_needed(0.5) == 20, "p50 needs 20 samples");
  c.expect(samples_needed(0.9) == 100, "p90 needs 100 samples");
  c.expect(samples_needed(0.99) == 1000, "p99 needs 1000 samples");
}

void check_geomean(Checker& c) {
  const double g = cost_ratio_geomean({2.0, 8.0}, {1.0, 1.0});
  c.expect(std::fabs(g - 4.0) < 1e-12, "geomean(2, 8) == 4");
  c.expect(cost_ratio_geomean({3.0, 5.0}, {3.0, 5.0}) == 1.0,
           "equal makespans give ratio 1");
  const double h = cost_ratio_geomean({1.0, 1.0, 1.0}, {2.0, 4.0, 8.0});
  c.expect(std::fabs(h - 0.25) < 1e-12, "geomean(1/2, 1/4, 1/8) == 1/4");
  bool threw = false;
  try {
    cost_ratio_geomean({0.0}, {1.0});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  c.expect(threw, "zero makespan is rejected");
}

void check_tally(Checker& c) {
  Tally a;
  a.attempted = 10;
  a.ok = 8;
  a.refused = 1;
  a.errored = 1;
  a.wrong = 2;
  a.retries = 3;
  c.expect(a.failed() == 4, "failed = refused + errored + wrong");
  c.expect(a.verified_ok() == 6, "verified ok excludes wrong answers");
  c.expect(std::fabs(a.failed_frac() - 0.4) < 1e-15, "failed_frac = 4/10");
  Tally retried_only;
  retried_only.attempted = 5;
  retried_only.ok = 5;
  retried_only.retries = 5;
  c.expect(retried_only.failed() == 0 && retried_only.failed_frac() == 0.0,
           "unknown-instance retries are not failures");
  Tally sum;
  sum += a;
  sum += retried_only;
  c.expect(sum.attempted == 15 && sum.retries == 8 && sum.failed() == 4,
           "tallies add field by field");
  c.expect(Tally{}.failed_frac() == 0.0, "empty tally has failed_frac 0");
}

void check_determinism(Checker& c) {
  for (WorkloadId id : {WorkloadId::kTigSolve, WorkloadId::kDagSolve,
                        WorkloadId::kServeCached}) {
    const std::string name = workload_name(id);
    // 48 requests cover three serve-cached writes (every 16th).
    const auto a = stream_frames(id, 7, 48);
    const auto b = stream_frames(id, 7, 48);
    const auto d = stream_frames(id, 8, 48);
    c.expect(a == b, name + ": equal seeds give byte-identical streams");
    c.expect(a != d, name + ": different seeds give different streams");
  }
}

}  // namespace

bool run_self_tests(std::ostream& log) {
  Checker c{log};
  check_percentiles(c);
  check_geomean(c);
  check_tally(c);
  check_determinism(c);
  return c.ok;
}

}  // namespace perfbench
