// Tests of the schedule-aware cost model (src/sim/schedule_eval.*) and
// the HEFT-class baselines (src/baselines/heft.*): a hand-checked golden
// makespan on a tiny instance, the feasibility checker itself, and the
// property the ISSUE pins — every schedule HEFT or topological list
// scheduling emits is precedence-feasible across random DAGs of all
// three generator families.

#include "sim/schedule_eval.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/heft.hpp"
#include "graph/dag.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "sim/platform.hpp"
#include "workload/dag_suite.hpp"

namespace {

using namespace match;
using graph::Dag;
using graph::Edge;
using graph::NodeId;

/// Diamond DAG on a 2-resource platform, small enough to schedule by
/// hand.  Tasks: w = {2, 3, 4, 1}; arcs 0→1 (1), 0→2 (2), 1→3 (1),
/// 2→3 (3).  Resources: processing costs {1, 2}, one link of cost 1.
struct HandInstance {
  Dag dag;
  sim::Platform platform;
};

HandInstance hand_instance() {
  std::vector<Edge> arcs = {
      {0, 1, 1.0}, {0, 2, 2.0}, {1, 3, 1.0}, {2, 3, 3.0}};
  Dag dag = Dag::from_edges(4, {2.0, 3.0, 4.0, 1.0}, arcs);
  std::vector<Edge> link = {{0, 1, 1.0}};
  graph::ResourceGraph rg(graph::Graph::from_edges(2, {1.0, 2.0}, link));
  return {std::move(dag), sim::Platform(rg, sim::CommCostPolicy::kDirectLinks)};
}

// ---- Golden makespans (hand-checked) -----------------------------------

TEST(ScheduleEval, AssignmentModeGoldenMakespan) {
  // Assignment {r0, r1, r0, r0}, topo order 0,1,2,3:
  //   t0 on r0: exec 2·1 = 2, finish 2
  //   t1 on r1: arrives 2 + 1·1 = 3, exec 3·2 = 6, finish 9
  //   t2 on r0: same resource as t0, starts at 2, exec 4, finish 6
  //   t3 on r0: ready max(9 + 1·1, 6) = 10, exec 1, finish 11
  const HandInstance h = hand_instance();
  const sim::ScheduleEvaluator eval(h.dag, h.platform);
  const std::vector<NodeId> assignment = {0, 1, 0, 0};
  EXPECT_DOUBLE_EQ(eval.makespan(assignment), 11.0);

  // Everything on the fast resource: pure serial chain 2+3+4+1.
  const std::vector<NodeId> serial = {0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(eval.makespan(serial), 10.0);
}

TEST(ScheduleEval, PriorityModeGoldenMakespanAndFullSchedule) {
  // Priority {0,1,2,3} with insertion EFT:
  //   t0 → r0 (finish 2 beats r1's 4)
  //   t1: r0 finishes 2+3 = 5, r1 finishes 3+6 = 9 → r0, [2,5]
  //   t2: r0 finishes 5+4 = 9, r1 finishes 4+8 = 12 → r0, [5,9]
  //   t3: r0 ready max(5,9) = 9 → [9,10]; r1 would be 12+2 → r0
  const HandInstance h = hand_instance();
  const sim::ScheduleEvaluator eval(h.dag, h.platform);
  const std::vector<NodeId> priority = {0, 1, 2, 3};
  sim::ScheduleEvaluator::Scratch scratch;
  sim::Schedule schedule;
  EXPECT_DOUBLE_EQ(eval.schedule_priorities(priority, scratch, &schedule),
                   10.0);
  EXPECT_DOUBLE_EQ(schedule.makespan, 10.0);
  ASSERT_EQ(schedule.assignment.size(), 4u);
  EXPECT_EQ(schedule.assignment, (std::vector<NodeId>{0, 0, 0, 0}));
  EXPECT_DOUBLE_EQ(schedule.start[3], 9.0);
  EXPECT_DOUBLE_EQ(schedule.finish[3], 10.0);

  std::string why;
  EXPECT_TRUE(sim::schedule_feasible(h.dag, h.platform, schedule, &why))
      << why;
}

TEST(HeftBaselines, GoldenMakespanOnTheHandInstance) {
  // Upward ranks (mean exec 1.5·w, mean comm = arc weight · 1):
  //   rank = {15.5, 7, 10.5, 1.5} → HEFT priority 0, 2, 1, 3, which EFT
  //   places entirely on r0 for makespan 10.  The canonical topological
  //   order 0,1,2,3 happens to land on the same placement here.
  const HandInstance h = hand_instance();
  const sim::ScheduleEvaluator eval(h.dag, h.platform);

  const auto ranks = eval.upward_ranks();
  ASSERT_EQ(ranks.size(), 4u);
  EXPECT_DOUBLE_EQ(ranks[0], 15.5);
  EXPECT_DOUBLE_EQ(ranks[1], 7.0);
  EXPECT_DOUBLE_EQ(ranks[2], 10.5);
  EXPECT_DOUBLE_EQ(ranks[3], 1.5);

  const auto heft = baselines::heft_schedule(eval);
  EXPECT_DOUBLE_EQ(heft.best_cost, 10.0);
  EXPECT_DOUBLE_EQ(heft.schedule.makespan, 10.0);

  const auto topo = baselines::topo_list_schedule(eval);
  EXPECT_DOUBLE_EQ(topo.best_cost, 10.0);
}

// ---- The feasibility checker itself ------------------------------------

TEST(ScheduleFeasible, CatchesPrecedenceOverlapAndShapeViolations) {
  const HandInstance h = hand_instance();
  const sim::ScheduleEvaluator eval(h.dag, h.platform);
  sim::ScheduleEvaluator::Scratch scratch;
  sim::Schedule good;
  eval.schedule_priorities(std::vector<NodeId>{0, 1, 2, 3}, scratch, &good);
  ASSERT_TRUE(sim::schedule_feasible(h.dag, h.platform, good));

  std::string why;
  sim::Schedule bad = good;
  bad.start[3] = 0.0;  // starts before its predecessors finish
  bad.finish[3] = 1.0;
  EXPECT_FALSE(sim::schedule_feasible(h.dag, h.platform, bad, &why));
  EXPECT_FALSE(why.empty());

  bad = good;
  bad.finish[1] = bad.start[1];  // wrong execution time
  EXPECT_FALSE(sim::schedule_feasible(h.dag, h.platform, bad, &why));

  bad = good;
  bad.assignment.pop_back();  // wrong shape
  EXPECT_FALSE(sim::schedule_feasible(h.dag, h.platform, bad, &why));
}

// ---- Property: list schedulers are always precedence-feasible ----------

TEST(HeftBaselines, AlwaysFeasibleAcrossRandomDagsOfEveryFamily) {
  for (const auto family :
       {workload::DagFamily::kLayered, workload::DagFamily::kForkJoin,
        workload::DagFamily::kSeriesParallel}) {
    for (std::uint64_t seed = 0; seed < 15; ++seed) {
      rng::Rng rng(1000 + seed);
      workload::DagSuiteParams params;
      params.tasks = 6 + seed * 3;
      params.resources = 2 + seed % 5;
      const auto inst = workload::make_dag_instance(family, params, rng);
      const auto platform = inst.make_platform();
      const sim::ScheduleEvaluator eval(inst.dag, platform);

      std::string why;
      const auto heft = baselines::heft_schedule(eval);
      EXPECT_TRUE(
          sim::schedule_feasible(inst.dag, platform, heft.schedule, &why))
          << workload::dag_family_name(family) << " seed " << seed
          << " (heft): " << why;
      EXPECT_DOUBLE_EQ(heft.schedule.makespan, heft.best_cost);

      const auto topo = baselines::topo_list_schedule(eval);
      EXPECT_TRUE(
          sim::schedule_feasible(inst.dag, platform, topo.schedule, &why))
          << workload::dag_family_name(family) << " seed " << seed
          << " (topo): " << why;

      // Arbitrary (even adversarial) priority permutations also yield
      // feasible schedules — the ready-set enforces precedence, the
      // permutation only breaks ties.
      std::vector<NodeId> reversed(eval.num_tasks());
      std::iota(reversed.rbegin(), reversed.rend(), NodeId{0});
      sim::ScheduleEvaluator::Scratch scratch;
      sim::Schedule schedule;
      eval.schedule_priorities(reversed, scratch, &schedule);
      EXPECT_TRUE(
          sim::schedule_feasible(inst.dag, platform, schedule, &why))
          << workload::dag_family_name(family) << " seed " << seed
          << " (reversed): " << why;
    }
  }
}

// ---- Scalar entry points and the priority batch ------------------------

constexpr workload::DagFamily kFamilies[] = {
    workload::DagFamily::kLayered,
    workload::DagFamily::kForkJoin,
    workload::DagFamily::kSeriesParallel,
};

workload::DagInstance make_instance(workload::DagFamily family,
                                    std::size_t tasks, std::uint64_t seed) {
  rng::Rng rng(seed);
  workload::DagSuiteParams params;
  params.tasks = tasks;
  return workload::make_dag_instance(family, params, rng);
}

/// Fills a block of `count` random priority permutations.
sim::SampleBlock random_priorities(std::size_t n, std::size_t count,
                                   rng::Rng& rng) {
  sim::SampleBlock block(n, count);
  std::vector<NodeId> perm(n);
  for (std::size_t lane = 0; lane < count; ++lane) {
    std::iota(perm.begin(), perm.end(), NodeId{0});
    rng.shuffle(perm);
    block.store_sample(lane, perm);
  }
  return block;
}

TEST(ScheduleEval, ExecCostTableMatchesDefinition) {
  const workload::DagInstance inst =
      make_instance(workload::DagFamily::kForkJoin, 16, 5);
  const sim::Platform platform = inst.make_platform();
  const sim::ScheduleEvaluator eval(inst.dag, platform);
  const std::size_t nr = platform.num_resources();
  ASSERT_EQ(eval.exec_costs().size(), 16 * nr);
  for (std::size_t t = 0; t < 16; ++t) {
    for (std::size_t r = 0; r < nr; ++r) {
      EXPECT_EQ(eval.exec_cost(t, r),
                inst.dag.node_weight(static_cast<NodeId>(t)) *
                    platform.processing_cost(static_cast<NodeId>(r)));
    }
  }
}

TEST(ScheduleEval, MakespanRejectsOutOfRangeResource) {
  const workload::DagInstance inst =
      make_instance(workload::DagFamily::kSeriesParallel, 10, 31);
  const sim::Platform platform = inst.make_platform();
  const sim::ScheduleEvaluator eval(inst.dag, platform);

  std::vector<NodeId> assignment(10, 0);
  assignment[7] = static_cast<NodeId>(platform.num_resources());
  sim::ScheduleEvaluator::Scratch scratch;
  EXPECT_THROW((void)eval.makespan(assignment, scratch),
               std::invalid_argument);
}

TEST(ScheduleEval, PriorityBatchMatchesScalarLaneForLane) {
  // The SampleBlock batch entry point must agree with the scalar kernel
  // bit for bit, whatever the thread pool does with the lanes.
  rng::Rng rng(5);
  workload::DagSuiteParams params;
  params.tasks = 16;
  const auto inst = workload::make_dag_instance(
      workload::DagFamily::kLayered, params, rng);
  const auto platform = inst.make_platform();
  const sim::ScheduleEvaluator eval(inst.dag, platform);

  const std::size_t n = eval.num_tasks();
  constexpr std::size_t kLanes = 8;
  const sim::SampleBlock block = random_priorities(n, kLanes, rng);
  std::vector<double> batch(kLanes);
  eval.priority_makespans_batch(block, batch);

  sim::ScheduleEvaluator::Scratch scratch;
  std::vector<NodeId> row(n);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    block.load_sample(lane, row);
    EXPECT_DOUBLE_EQ(eval.schedule_priorities(row, scratch), batch[lane])
        << "lane " << lane;
  }
}

TEST(ScheduleBackend, PriorityBatchMatchesPerSampleScheduler) {
  // Same contract on every DAG family; 21 lanes leave a partial final
  // chunk.
  for (const workload::DagFamily family : kFamilies) {
    const workload::DagInstance inst = make_instance(family, 24, 29);
    const sim::Platform platform = inst.make_platform();
    const sim::ScheduleEvaluator eval(inst.dag, platform);
    rng::Rng rng(6);
    constexpr std::size_t kLanes = 21;
    const sim::SampleBlock block = random_priorities(24, kLanes, rng);

    std::vector<double> batch(kLanes);
    eval.priority_makespans_batch(block, batch);
    sim::ScheduleEvaluator::Scratch scratch;
    std::vector<NodeId> row(24);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      block.load_sample(lane, row);
      EXPECT_EQ(batch[lane], eval.schedule_priorities(row, scratch))
          << workload::dag_family_name(family) << " lane " << lane;
    }
  }
}

TEST(ScheduleEval, PriorityBatchIndependentOfThreadCountAndChunking) {
  const workload::DagInstance inst =
      make_instance(workload::DagFamily::kLayered, 32, 23);
  const sim::Platform platform = inst.make_platform();
  const sim::ScheduleEvaluator eval(inst.dag, platform);
  rng::Rng rng(8);
  const sim::SampleBlock block = random_priorities(32, 107, rng);

  std::vector<double> serial(107), pooled(107);
  parallel::ForOptions one_chunk;
  one_chunk.serial_cutoff = std::numeric_limits<std::size_t>::max();
  eval.priority_makespans_batch(block, serial, one_chunk);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::ThreadPool pool(threads);
    for (const std::size_t grain : {1u, 3u, 7u}) {
      parallel::ForOptions opts;
      opts.pool = &pool;
      opts.serial_cutoff = 0;
      opts.grain = grain;
      std::fill(pooled.begin(), pooled.end(), -1.0);
      eval.priority_makespans_batch(block, pooled, opts);
      for (std::size_t i = 0; i < pooled.size(); ++i) {
        EXPECT_EQ(pooled[i], serial[i])
            << "threads=" << threads << " grain=" << grain << " lane " << i;
      }
    }
  }
}

}  // namespace
