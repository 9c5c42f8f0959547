// Microbenchmark for the DAG schedule-evaluation hot path: the
// scalar-lane priority-mode batch (`priority_makespans_batch`, the cost
// pass DAG CE runs) across the three DAG families at n = 128/256/512 on
// one core.  Writes BENCH_dag_perf.json so CI accumulates a perf
// trajectory next to BENCH_perf.json / BENCH_dag.json.
//
//   --quick   shorter timing windows and no n = 512 (CI default)
//   --full    longer windows (quieter numbers)
//
// Reports samples/s only; wall-clock numbers are never gated.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "graph/dag.hpp"
#include "io/table.hpp"
#include "obs/bench_report.hpp"
#include "parallel/parallel_for.hpp"
#include "rng/rng.hpp"
#include "sim/batch_eval.hpp"
#include "sim/schedule_eval.hpp"
#include "workload/dag_suite.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

match::parallel::ForOptions serial_opts() {
  match::parallel::ForOptions serial;
  serial.serial_cutoff = std::numeric_limits<std::size_t>::max();
  return serial;
}

// One timed window of priority-mode batch evaluation, parallelism
// forced off so samples/s IS samples/s/core.
double priority_window_rate(const match::sim::ScheduleEvaluator& eval,
                            const match::sim::SampleBlock& block,
                            std::span<double> out, double window_seconds) {
  const auto serial = serial_opts();
  eval.priority_makespans_batch(block, out, serial);
  std::size_t reps = 0;
  double wall = 0.0;
  const auto t0 = Clock::now();
  do {
    eval.priority_makespans_batch(block, out, serial);
    ++reps;
    wall = seconds_since(t0);
  } while (wall < window_seconds);
  return static_cast<double>(reps * block.size()) / std::max(wall, 1e-12);
}

const match::workload::DagFamily kFamilies[] = {
    match::workload::DagFamily::kLayered,
    match::workload::DagFamily::kForkJoin,
    match::workload::DagFamily::kSeriesParallel,
};

}  // namespace

int main(int argc, char** argv) {
  using match::io::Table;

  bool full = false, quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") full = true;
    if (arg == "--quick") quick = true;
  }
  std::vector<std::size_t> sizes = {128, 256};
  if (!quick) sizes.push_back(512);
  const double window = full ? 0.5 : (quick ? 0.12 : 0.3);
  const int trials = 3;

  match::bench::BenchReport report;
  report.name = "dag_perf";
  report.git_sha = match::bench::current_git_sha();
  report.config["mode"] = full ? "full" : (quick ? "quick" : "default");
  report.config["window_seconds"] = std::to_string(window);

  std::cout << "== DAG priority-mode schedule evaluation, one core "
               "(nr=8, 2n samples) ==\n";
  Table table({"family", "n", "samples/s"});
  for (const match::workload::DagFamily family : kFamilies) {
    const char* fname = match::workload::dag_family_name(family);
    for (const std::size_t n : sizes) {
      std::fprintf(stderr, "micro_schedule_eval: %s n=%zu\n", fname, n);
      match::rng::Rng setup(42);
      match::workload::DagSuiteParams wp;
      wp.tasks = n;
      wp.resources = 8;
      // Keep layer width roughly constant as n grows; the default 5
      // layers at n = 512 would make an untypically flat DAG.
      wp.layers = std::max<std::size_t>(5, n / 32);
      const match::workload::DagInstance inst =
          match::workload::make_dag_instance(family, wp, setup);
      const match::sim::Platform platform = inst.make_platform();
      const std::size_t count = 2 * n;

      // Random priority permutations.
      match::sim::SampleBlock prio_block(n, count);
      std::vector<match::graph::NodeId> row(n);
      std::iota(row.begin(), row.end(), match::graph::NodeId{0});
      for (std::size_t i = 0; i < count; ++i) {
        setup.shuffle(std::span<match::graph::NodeId>(row));
        prio_block.store_sample(i, row);
      }

      std::vector<double> out(count);
      const match::sim::ScheduleEvaluator eval(inst.dag, platform);
      double prio_rate = 0.0;
      for (int trial = 0; trial < trials; ++trial) {
        prio_rate = std::max(
            prio_rate, priority_window_rate(eval, prio_block, out, window));
      }
      match::bench::BenchCase pc;
      pc.name = std::string("priority/scalar/") + fname +
                "/n=" + std::to_string(n);
      pc.metrics["samples_per_sec"] = prio_rate;
      pc.metrics["samples_per_sec_per_core"] = prio_rate;
      report.cases.push_back(pc);
      table.add_row({fname, std::to_string(n), Table::num(prio_rate, 1)});
    }
  }
  table.print(std::cout);

  const std::string path = report.write();
  std::cout << "report: " << path << "\n";
  return 0;
}
