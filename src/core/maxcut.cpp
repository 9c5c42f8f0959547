#include "core/maxcut.hpp"

#include <algorithm>
#include <stdexcept>

namespace match::core {

MaxCutProblem::MaxCutProblem(const graph::Graph& g) : g_(&g) {
  if (g.num_nodes() < 2) {
    throw std::invalid_argument("MaxCutProblem: need >= 2 nodes");
  }
  p_.assign(g.num_nodes(), 0.5);
  p_[0] = 0.0;  // symmetry breaking: node 0 always on side 0
}

void MaxCutProblem::draw(std::span<graph::NodeId> side, rng::Rng& rng) const {
  for (std::size_t i = 0; i < p_.size(); ++i) {
    side[i] = rng.bernoulli(p_[i]) ? 1 : 0;
  }
}

double MaxCutProblem::cut_weight(std::span<const graph::NodeId> side) const {
  double w = 0.0;
  for (const graph::Edge& e : g_->edge_list()) {
    if (side[e.u] != side[e.v]) w += e.weight;
  }
  return w;
}

double MaxCutProblem::cost(std::span<const graph::NodeId> side) const {
  return -cut_weight(side);
}

void MaxCutProblem::update(const sim::SampleBlock& block,
                           std::span<const std::size_t> elite, double zeta) {
  const double inv = 1.0 / static_cast<double>(elite.size());
  for (std::size_t i = 1; i < p_.size(); ++i) {
    const graph::NodeId* side = block.task_row(i);
    double freq = 0.0;
    for (const std::size_t lane : elite) freq += static_cast<double>(side[lane]);
    p_[i] = zeta * (freq * inv) + (1.0 - zeta) * p_[i];
  }
}

bool MaxCutProblem::degenerate(double eps) const {
  return std::all_of(p_.begin() + 1, p_.end(), [eps](double p) {
    return p <= eps || p >= 1.0 - eps;
  });
}

double MaxCutProblem::brute_force_max_cut(const graph::Graph& g) {
  const std::size_t n = g.num_nodes();
  if (n > 24) {
    throw std::invalid_argument("brute_force_max_cut: too many nodes");
  }
  const auto edges = g.edge_list();
  double best = 0.0;
  // Node 0 fixed on side 0 halves the enumeration.
  const std::uint64_t limit = 1ULL << (n - 1);
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    double w = 0.0;
    for (const graph::Edge& e : edges) {
      const bool su = e.u == 0 ? false : ((mask >> (e.u - 1)) & 1) != 0;
      const bool sv = e.v == 0 ? false : ((mask >> (e.v - 1)) & 1) != 0;
      if (su != sv) w += e.weight;
    }
    best = std::max(best, w);
  }
  return best;
}

}  // namespace match::core
