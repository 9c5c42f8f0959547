#include "core/ce_driver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <span>
#include <vector>

#include "core/maxcut.hpp"
#include "graph/generators.hpp"
#include "rng/rng.hpp"

namespace match::core {
namespace {

TEST(CeDriverParams, ValidationCatchesBadValues) {
  CeDriverParams p;
  p.rho = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.zeta = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.sample_size = 1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.max_iterations = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  EXPECT_NO_THROW(p.validate());
}

/// A trivial 1-D problem: minimize |x - 7| over integers 0..15 encoded as
/// 4 Bernoulli bits.  Exercises the engine independent of max-cut.
class BitIntegerProblem {
 public:
  static constexpr EliteRule kElite = EliteRule::kQuantile;
  static constexpr StallRule kStall = StallRule::kNoGain;

  std::size_t sample_length() const { return 4; }

  void draw(std::span<graph::NodeId> s, rng::Rng& rng) const {
    for (int i = 0; i < 4; ++i) s[i] = rng.bernoulli(p_[i]) ? 1 : 0;
  }

  static int value(std::span<const graph::NodeId> s) {
    int v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<int>(s[i]) << i;
    return v;
  }

  double cost(std::span<const graph::NodeId> s) const {
    return std::abs(value(s) - 7);
  }

  void update(const sim::SampleBlock& block, std::span<const std::size_t> elite,
              double zeta) {
    for (int i = 0; i < 4; ++i) {
      double freq = 0.0;
      for (const std::size_t lane : elite) freq += block.task_row(i)[lane];
      p_[i] = zeta * (freq / static_cast<double>(elite.size())) +
              (1.0 - zeta) * p_[i];
    }
  }

  bool degenerate(double eps) const {
    for (double p : p_) {
      if (p > eps && p < 1.0 - eps) return false;
    }
    return true;
  }

 private:
  std::vector<double> p_ = std::vector<double>(4, 0.5);
};

TEST(CeDriver, SolvesBitIntegerProblem) {
  BitIntegerProblem problem;
  CeDriverParams params;
  params.sample_size = 64;
  rng::Rng rng(1);
  const auto r = run_ce(problem, params, match::SolverContext(rng));
  EXPECT_EQ(BitIntegerProblem::value(r.best), 7);
  EXPECT_DOUBLE_EQ(r.best_cost, 0.0);
  EXPECT_TRUE(r.degenerate || r.iterations > 0);
}

TEST(CeDriver, HistoryTracksBestSoFar) {
  BitIntegerProblem problem;
  CeDriverParams params;
  params.sample_size = 32;
  rng::Rng rng(2);
  const auto r = run_ce(problem, params, match::SolverContext(rng));
  ASSERT_FALSE(r.history.empty());
  for (std::size_t i = 1; i < r.history.size(); ++i) {
    EXPECT_LE(r.history[i].best_so_far, r.history[i - 1].best_so_far);
  }
}

/// Every sample costs the same, so the threshold rule `costs[i] <= gamma`
/// would admit the entire batch; update() records what it actually gets.
class ConstantCostProblem {
 public:
  static constexpr EliteRule kElite = EliteRule::kQuantile;
  static constexpr StallRule kStall = StallRule::kNoGain;

  std::size_t sample_length() const { return 1; }
  void draw(std::span<graph::NodeId> s, rng::Rng& rng) const {
    s[0] = static_cast<graph::NodeId>(rng.below(4));
  }
  double cost(std::span<const graph::NodeId>) const { return 1.0; }

  void update(const sim::SampleBlock&, std::span<const std::size_t> elite,
              double /*zeta*/) {
    elite_sizes.push_back(elite.size());
  }

  bool degenerate(double) const { return false; }

  std::vector<std::size_t> elite_sizes;
};

TEST(CeDriver, EliteSetCappedAtRhoQuantileUnderTies) {
  // Regression: with all 50 costs tied, the elite set must still be the
  // rho-quantile's floor(0.1 * 50) = 5 samples, not the whole batch.
  ConstantCostProblem problem;
  CeDriverParams params;
  params.sample_size = 50;
  params.rho = 0.1;
  params.max_iterations = 20;
  rng::Rng rng(9);
  const auto r = run_ce(problem, params, match::SolverContext(rng));
  ASSERT_FALSE(problem.elite_sizes.empty());
  for (std::size_t size : problem.elite_sizes) EXPECT_EQ(size, 5u);
  // gamma never improves, so the stall window ends the run early.
  EXPECT_LE(r.iterations, params.gamma_stall_window + 1);
}

TEST(CeDriver, CancelledBeforeFirstIterationStillReturnsASample) {
  BitIntegerProblem problem;
  CeDriverParams params;
  rng::Rng rng(10);
  const auto r = run_ce(problem, params,
                        match::SolverContext(rng, [] { return true; }));
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.iterations, 0u);
  ASSERT_EQ(r.best.size(), 4u);  // valid sample, not a default-constructed one
  EXPECT_TRUE(std::isfinite(r.best_cost));
}

TEST(CeDriver, CancelledMidRunKeepsBestSoFar) {
  BitIntegerProblem problem;
  CeDriverParams params;
  params.sample_size = 64;
  std::size_t polls = 0;
  rng::Rng rng(11);
  const auto r =
      run_ce(problem, params,
             match::SolverContext(rng, [&polls] { return ++polls > 3; }));
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.iterations, 3u);
  EXPECT_EQ(r.history.size(), 3u);
  EXPECT_TRUE(std::isfinite(r.best_cost));
}

TEST(MaxCut, RejectsTinyGraph) {
  const graph::Graph g = graph::Graph::from_edges(1, {}, {});
  EXPECT_THROW(MaxCutProblem{g}, std::invalid_argument);
}

TEST(MaxCut, CutWeightIsCorrect) {
  const std::vector<graph::Edge> edges = {{0, 1, 2.0}, {1, 2, 3.0}, {0, 2, 4.0}};
  const graph::Graph g = graph::Graph::from_edges(3, {}, edges);
  const MaxCutProblem problem(g);
  // Partition {0} vs {1,2}: cuts edges (0,1) and (0,2) = 6.
  using Sides = std::vector<graph::NodeId>;
  EXPECT_DOUBLE_EQ(problem.cut_weight(Sides{0, 1, 1}), 6.0);
  // Partition {0,1} vs {2}: cuts (1,2) and (0,2) = 7.
  EXPECT_DOUBLE_EQ(problem.cut_weight(Sides{0, 0, 1}), 7.0);
  // Everything together: nothing cut.
  EXPECT_DOUBLE_EQ(problem.cut_weight(Sides{0, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(problem.cost(Sides{0, 0, 1}), -7.0);
}

TEST(MaxCut, BruteForceOnTriangle) {
  const std::vector<graph::Edge> edges = {{0, 1, 2.0}, {1, 2, 3.0}, {0, 2, 4.0}};
  const graph::Graph g = graph::Graph::from_edges(3, {}, edges);
  EXPECT_DOUBLE_EQ(MaxCutProblem::brute_force_max_cut(g), 7.0);
}

TEST(MaxCut, BruteForceRejectsLargeGraphs) {
  rng::Rng rng(3);
  const graph::Graph g = graph::make_gnp(30, 0.2, {1, 1}, {1, 1}, rng);
  EXPECT_THROW(MaxCutProblem::brute_force_max_cut(g), std::invalid_argument);
}

TEST(MaxCut, CeFindsOptimumOnSmallRandomGraphs) {
  rng::Rng graph_rng(4);
  for (std::uint64_t seed : {10ull, 11ull, 12ull}) {
    const graph::Graph g = graph::make_gnp(12, 0.4, {1, 1}, {1, 9}, graph_rng);
    const double optimum = MaxCutProblem::brute_force_max_cut(g);

    MaxCutProblem problem(g);
    CeDriverParams params;
    params.sample_size = 300;
    params.rho = 0.1;
    rng::Rng rng(seed);
    const auto r = run_ce(problem, params, match::SolverContext(rng));
    EXPECT_NEAR(-r.best_cost, optimum, 1e-9) << "seed " << seed;
  }
}

TEST(MaxCut, BipartiteGraphCutsEverything) {
  // Complete bipartite K_{3,3}: the optimal cut separates the sides and
  // includes every edge.
  std::vector<graph::Edge> edges;
  double total = 0.0;
  for (graph::NodeId u = 0; u < 3; ++u) {
    for (graph::NodeId v = 3; v < 6; ++v) {
      edges.push_back({u, v, static_cast<double>(u + v)});
      total += static_cast<double>(u + v);
    }
  }
  const graph::Graph g = graph::Graph::from_edges(6, {}, edges);

  MaxCutProblem problem(g);
  CeDriverParams params;
  params.sample_size = 200;
  rng::Rng rng(5);
  const auto r = run_ce(problem, params, match::SolverContext(rng));
  EXPECT_DOUBLE_EQ(-r.best_cost, total);
}

TEST(MaxCut, SymmetryPinHoldsThroughUpdates) {
  rng::Rng graph_rng(6);
  const graph::Graph g = graph::make_gnp(10, 0.5, {1, 1}, {1, 5}, graph_rng);
  MaxCutProblem problem(g);
  CeDriverParams params;
  params.sample_size = 100;
  params.max_iterations = 30;
  rng::Rng rng(7);
  run_ce(problem, params, match::SolverContext(rng));
  EXPECT_DOUBLE_EQ(problem.probabilities()[0], 0.0);
}

TEST(MaxCut, DegenerateFlagSetOnConvergence) {
  const std::vector<graph::Edge> edges = {{0, 1, 5.0}};
  const graph::Graph g = graph::Graph::from_edges(2, {}, edges);
  MaxCutProblem problem(g);
  CeDriverParams params;
  params.sample_size = 50;
  params.zeta = 1.0;
  rng::Rng rng(8);
  const auto r = run_ce(problem, params, match::SolverContext(rng));
  EXPECT_DOUBLE_EQ(-r.best_cost, 5.0);
  EXPECT_TRUE(r.degenerate);
}

}  // namespace
}  // namespace match::core
