#pragma once

#include <span>
#include <vector>

#include "core/ce_driver.hpp"
#include "graph/graph.hpp"
#include "rng/rng.hpp"

namespace match::core {

/// CE adapter for the (weighted) max-cut problem — Rubinstein's original
/// showcase for CE on combinatorial optimization, included to demonstrate
/// that the library's generic driver covers the paper's §3 framework, not
/// just the mapping problem.
///
/// The pmf is a vector of independent Bernoulli parameters, one per node:
/// `p_i` is the probability node i lands on side 1.  Node 0 is pinned to
/// side 0 to quotient out the cut's mirror symmetry.  The engine
/// *minimizes*, so cost = −(cut weight).
class MaxCutProblem {
 public:
  static constexpr EliteRule kElite = EliteRule::kQuantile;
  static constexpr StallRule kStall = StallRule::kNoGain;

  explicit MaxCutProblem(const graph::Graph& g);

  /// A sample is one side bit (0 or 1) per node.
  std::size_t sample_length() const { return p_.size(); }
  void draw(std::span<graph::NodeId> side, rng::Rng& rng) const;
  double cost(std::span<const graph::NodeId> side) const;  ///< −cut weight
  void update(const sim::SampleBlock& block, std::span<const std::size_t> elite,
              double zeta);
  bool degenerate(double eps) const;

  /// Cut weight of a partition (the maximized quantity).
  double cut_weight(std::span<const graph::NodeId> side) const;

  const std::vector<double>& probabilities() const noexcept { return p_; }

  /// Exhaustive optimum for n <= 24 nodes (testing/benchmark reference).
  static double brute_force_max_cut(const graph::Graph& g);

 private:
  const graph::Graph* g_;
  std::vector<double> p_;
};

}  // namespace match::core
