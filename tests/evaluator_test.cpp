#include "sim/evaluator.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.hpp"
#include "rng/rng.hpp"
#include "workload/paper_suite.hpp"

namespace match::sim {
namespace {

/// 3 tasks, W = [2, 3, 4], interactions (0,1) C=10 and (1,2) C=20.
graph::Tig small_tig() {
  const std::vector<graph::Edge> edges = {{0, 1, 10.0}, {1, 2, 20.0}};
  return graph::Tig(graph::Graph::from_edges(3, {2.0, 3.0, 4.0}, edges));
}

/// 3 resources, w = [1, 2, 3], links c01=5, c02=6, c12=7.
Platform small_platform() {
  const std::vector<graph::Edge> edges = {{0, 1, 5.0}, {0, 2, 6.0}, {1, 2, 7.0}};
  return Platform(graph::ResourceGraph(
      graph::Graph::from_edges(3, {1.0, 2.0, 3.0}, edges)));
}

TEST(CostEvaluator, MatchesHandComputedIdentityMapping) {
  const auto tig = small_tig();
  const auto plat = small_platform();
  const CostEvaluator eval(tig, plat);

  // Exec_0 = 2*1 + 10*5            = 52
  // Exec_1 = 3*2 + 10*5 + 20*7     = 196
  // Exec_2 = 4*3 + 20*7            = 152
  const EvalResult r = eval.evaluate(Mapping::identity(3));
  EXPECT_DOUBLE_EQ(r.loads[0].total(), 52.0);
  EXPECT_DOUBLE_EQ(r.loads[1].total(), 196.0);
  EXPECT_DOUBLE_EQ(r.loads[2].total(), 152.0);
  EXPECT_DOUBLE_EQ(r.makespan, 196.0);
  EXPECT_EQ(r.busiest, 1u);

  EXPECT_DOUBLE_EQ(r.loads[1].compute, 6.0);
  EXPECT_DOUBLE_EQ(r.loads[1].comm, 190.0);
}

TEST(CostEvaluator, MatchesHandComputedSwappedMapping) {
  const auto tig = small_tig();
  const auto plat = small_platform();
  const CostEvaluator eval(tig, plat);

  // t0->r1, t1->r0, t2->r2:
  // Exec_0 (t1) = 3*1 + 10*5 + 20*6 = 173
  // Exec_1 (t0) = 2*2 + 10*5        = 54
  // Exec_2 (t2) = 4*3 + 20*6        = 132
  const Mapping m(std::vector<graph::NodeId>{1, 0, 2});
  const EvalResult r = eval.evaluate(m);
  EXPECT_DOUBLE_EQ(r.loads[0].total(), 173.0);
  EXPECT_DOUBLE_EQ(r.loads[1].total(), 54.0);
  EXPECT_DOUBLE_EQ(r.loads[2].total(), 132.0);
  EXPECT_DOUBLE_EQ(r.makespan, 173.0);
}

TEST(CostEvaluator, ColocatedTasksPayNoCommunication) {
  const auto tig = small_tig();
  const auto plat = small_platform();
  const CostEvaluator eval(tig, plat);

  // Everything on resource 0: pure compute, (2+3+4)*1 = 9.
  const Mapping m(std::vector<graph::NodeId>{0, 0, 0});
  const EvalResult r = eval.evaluate(m);
  EXPECT_DOUBLE_EQ(r.makespan, 9.0);
  EXPECT_DOUBLE_EQ(r.loads[0].comm, 0.0);
  EXPECT_DOUBLE_EQ(r.loads[1].total(), 0.0);
  EXPECT_DOUBLE_EQ(r.loads[2].total(), 0.0);
}

TEST(CostEvaluator, MakespanMatchesEvaluate) {
  rng::Rng rng(1);
  workload::PaperParams params;
  params.n = 12;
  const auto inst = workload::make_paper_instance(params, rng);
  const auto plat = inst.make_platform();
  const CostEvaluator eval(inst.tig, plat);
  for (int trial = 0; trial < 30; ++trial) {
    const Mapping m = Mapping::random_permutation(12, rng);
    EXPECT_DOUBLE_EQ(eval.makespan(m), eval.evaluate(m).makespan);
  }
}

TEST(CostEvaluator, EdgeKernelMatchesEvaluateOnFractionalWeights) {
  // Geometric platforms carry fractional (distance-derived) link costs,
  // so the edge-streaming makespan kernel and the per-task reference in
  // evaluate() accumulate in different orders; they must still agree to
  // reassociation tolerance.
  rng::Rng rng(7);
  constexpr std::size_t kN = 16;
  const graph::Tig tig(
      graph::make_clustered(kN, 3, 0.7, 0.2, {1, 10}, {50, 100}, rng));
  const Platform plat(
      graph::ResourceGraph(graph::make_geometric(kN, 0.5, {1, 5}, 15.0, rng)),
      CommCostPolicy::kShortestPath);
  const CostEvaluator eval(tig, plat);
  std::vector<double> scratch;
  for (int trial = 0; trial < 30; ++trial) {
    const Mapping m = Mapping::random_permutation(kN, rng);
    const double ref = eval.evaluate(m).makespan;
    EXPECT_NEAR(eval.makespan(m.assignment(), scratch), ref,
                1e-9 * std::max(1.0, ref));
  }
}

TEST(CostEvaluator, RejectsEmptyInputs) {
  const auto plat = small_platform();
  graph::Tig empty;
  EXPECT_THROW(CostEvaluator(empty, plat), std::invalid_argument);
}

TEST(LoadTracker, InitialLoadsMatchEvaluate) {
  const auto tig = small_tig();
  const auto plat = small_platform();
  const CostEvaluator eval(tig, plat);
  const Mapping m = Mapping::identity(3);
  const LoadTracker tracker(eval, m);
  const EvalResult r = eval.evaluate(m);
  ASSERT_EQ(tracker.loads().size(), r.loads.size());
  for (std::size_t s = 0; s < r.loads.size(); ++s) {
    EXPECT_NEAR(tracker.loads()[s].total(), r.loads[s].total(), 1e-9);
  }
  EXPECT_NEAR(tracker.makespan(), r.makespan, 1e-9);
}

TEST(LoadTracker, MoveMatchesFullRecompute) {
  const auto tig = small_tig();
  const auto plat = small_platform();
  const CostEvaluator eval(tig, plat);
  LoadTracker tracker(eval, Mapping::identity(3));

  tracker.apply_move(0, 2);  // t0 joins t2 on r2
  const EvalResult r = eval.evaluate(tracker.mapping());
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_NEAR(tracker.loads()[s].total(), r.loads[s].total(), 1e-9);
  }
}

TEST(LoadTracker, RandomMoveSequenceStaysExact) {
  rng::Rng rng(3);
  workload::PaperParams params;
  params.n = 15;
  const auto inst = workload::make_paper_instance(params, rng);
  const auto plat = inst.make_platform();
  const CostEvaluator eval(inst.tig, plat);

  LoadTracker tracker(eval, Mapping::random_permutation(15, rng));
  for (int step = 0; step < 200; ++step) {
    const auto t = static_cast<graph::NodeId>(rng.below(15));
    const auto r = static_cast<graph::NodeId>(rng.below(15));
    tracker.apply_move(t, r);
    if (step % 20 == 0) {
      const EvalResult ref = eval.evaluate(tracker.mapping());
      for (std::size_t s = 0; s < 15; ++s) {
        ASSERT_NEAR(tracker.loads()[s].total(), ref.loads[s].total(), 1e-6)
            << "step " << step << " resource " << s;
      }
    }
  }
}

TEST(LoadTracker, SwapKeepsPermutation) {
  rng::Rng rng(4);
  workload::PaperParams params;
  params.n = 10;
  const auto inst = workload::make_paper_instance(params, rng);
  const auto plat = inst.make_platform();
  const CostEvaluator eval(inst.tig, plat);

  LoadTracker tracker(eval, Mapping::random_permutation(10, rng));
  for (int step = 0; step < 50; ++step) {
    const auto a = static_cast<graph::NodeId>(rng.below(10));
    const auto b = static_cast<graph::NodeId>(rng.below(10));
    tracker.apply_swap(a, b);
    EXPECT_TRUE(tracker.mapping().is_permutation());
  }
  const EvalResult ref = eval.evaluate(tracker.mapping());
  EXPECT_NEAR(tracker.makespan(), ref.makespan, 1e-6);
}

TEST(LoadTracker, PeekMoveDeltaDoesNotMutate) {
  const auto tig = small_tig();
  const auto plat = small_platform();
  const CostEvaluator eval(tig, plat);
  LoadTracker tracker(eval, Mapping::identity(3));
  const double before = tracker.makespan();
  const double delta = tracker.peek_move_delta(1, 0);
  EXPECT_NEAR(tracker.makespan(), before, 1e-12);
  // Verify the predicted delta by applying the move.
  tracker.apply_move(1, 0);
  EXPECT_NEAR(tracker.makespan(), before + delta, 1e-9);
}

TEST(LoadTracker, MoveToSameResourceIsANoop) {
  const auto tig = small_tig();
  const auto plat = small_platform();
  const CostEvaluator eval(tig, plat);
  LoadTracker tracker(eval, Mapping::identity(3));
  const double before = tracker.makespan();
  tracker.apply_move(1, 1);
  EXPECT_DOUBLE_EQ(tracker.makespan(), before);
}

}  // namespace
}  // namespace match::sim
