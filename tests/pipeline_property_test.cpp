// Pipeline-wide property sweep: for every platform topology family ×
// communication policy × size, the full stack (generator → platform →
// evaluator → MaTCH) must hold its invariants — valid permutations,
// evaluator/LoadTracker agreement, and optimizer results no worse than
// the random-sampling yardstick.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "baselines/local_search.hpp"
#include "core/matchalgo.hpp"
#include "graph/generators.hpp"
#include "sim/des.hpp"
#include "workload/paper_suite.hpp"

namespace match {
namespace {

using Param = std::tuple<std::string, std::size_t>;

graph::Graph make_topology(const std::string& kind, std::size_t n,
                           rng::Rng& rng) {
  const graph::WeightRange node_w{1, 5}, link_w{10, 20};
  if (kind == "complete") return graph::make_complete(n, node_w, link_w, rng);
  if (kind == "ring") return graph::make_ring(n, node_w, link_w, rng);
  if (kind == "star") return graph::make_star(n, node_w, link_w, rng);
  if (kind == "gnp") return graph::make_gnp(n, 0.4, node_w, link_w, rng);
  if (kind == "ba") {
    return graph::make_barabasi_albert(n, 2, node_w, link_w, rng);
  }
  return graph::make_geometric(n, 0.5, node_w, 15.0, rng);
}

class TopologyPipelineTest : public ::testing::TestWithParam<Param> {};

TEST_P(TopologyPipelineTest, FullStackInvariantsHold) {
  const auto [kind, n] = GetParam();
  rng::Rng rng(static_cast<std::uint64_t>(n) * 131 + kind[0]);

  // Application: paper-style TIG of matching size.
  const graph::Tig tig(
      graph::make_clustered(n, 3, 0.7, 0.2, {1, 10}, {50, 100}, rng));

  // Platform: the requested topology; complete graphs use direct links,
  // everything else routes over shortest paths.
  const graph::ResourceGraph resources(make_topology(kind, n, rng));
  const sim::CommCostPolicy policy = kind == "complete"
                                         ? sim::CommCostPolicy::kDirectLinks
                                         : sim::CommCostPolicy::kShortestPath;
  const sim::Platform platform(resources, policy);
  const sim::CostEvaluator eval(tig, platform);

  // 1. Evaluator and LoadTracker agree after arbitrary move sequences.
  sim::LoadTracker tracker(eval, sim::Mapping::random_permutation(n, rng));
  for (int step = 0; step < 60; ++step) {
    tracker.apply_move(static_cast<graph::NodeId>(rng.below(n)),
                       static_cast<graph::NodeId>(rng.below(n)));
  }
  const auto ref = eval.evaluate(tracker.mapping());
  EXPECT_NEAR(tracker.makespan(), ref.makespan, 1e-6);

  // 2. The DES reproduces the analytic cost in its regime on every
  //    topology (including routed ones).
  const auto perm = sim::Mapping::random_permutation(n, rng);
  EXPECT_NEAR(sim::simulate_execution(eval, perm, {}).total_time,
              eval.makespan(perm), 1e-9);

  // 3. MaTCH produces a valid permutation and beats the mean of random
  //    sampling.
  core::MatchParams mp;
  mp.max_iterations = 60;
  core::MatchOptimizer opt(eval, mp);
  rng::Rng run_rng(7);
  const auto result = opt.run(match::SolverContext(run_rng));
  EXPECT_TRUE(result.best_mapping.is_permutation());

  rng::Rng sample_rng(8);
  double random_mean = 0.0;
  constexpr int kSamples = 60;
  for (int i = 0; i < kSamples; ++i) {
    random_mean +=
        eval.makespan(sim::Mapping::random_permutation(n, sample_rng));
  }
  random_mean /= kSamples;
  EXPECT_LT(result.best_cost, random_mean);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, TopologyPipelineTest,
    ::testing::Combine(::testing::Values("complete", "ring", "star", "gnp",
                                         "ba", "geometric"),
                       ::testing::Values(std::size_t{8}, std::size_t{16})),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace match
