#include "sim/evaluator.hpp"

#include <cassert>
#include <stdexcept>

namespace match::sim {

CostEvaluator::CostEvaluator(const graph::Tig& tig, const Platform& platform)
    : tig_(&tig), platform_(&platform) {
  if (tig.num_tasks() == 0) {
    throw std::invalid_argument("CostEvaluator: empty TIG");
  }
  if (platform.num_resources() == 0) {
    throw std::invalid_argument("CostEvaluator: empty platform");
  }

  // Precompute the undirected edge list (each TIG edge once, a < b) and
  // probe the comm matrix for symmetry.  When c_{s,b} == c_{b,s} for all
  // pairs — true for every shortest-path-derived platform in the paper —
  // the makespan kernel can visit each edge once and charge both
  // endpoints from a single comm-matrix load, halving its gather work.
  const graph::Graph& tg = tig.graph();
  for (graph::NodeId t = 0; t < tg.num_nodes(); ++t) {
    for (const graph::Neighbor& nb : tg.neighbors(t)) {
      if (nb.id > t) edges_.push_back({t, nb.id, nb.weight});
    }
  }
  const std::size_t nr = platform.num_resources();
  comm_symmetric_ = true;
  for (graph::NodeId s = 0; s < nr && comm_symmetric_; ++s) {
    for (graph::NodeId b = s + 1; b < nr; ++b) {
      if (platform.comm_cost(s, b) != platform.comm_cost(b, s)) {
        comm_symmetric_ = false;
        break;
      }
    }
  }
}

double CostEvaluator::makespan(const Mapping& m) const {
  return makespan(m.assignment());
}

double CostEvaluator::makespan(std::span<const graph::NodeId> assignment) const {
  std::vector<double> load;
  return makespan(assignment, load);
}

double CostEvaluator::makespan(std::span<const graph::NodeId> assignment,
                               std::vector<double>& load_scratch) const {
  assert(assignment.size() == tig_->num_tasks());
  const std::size_t nr = platform_->num_resources();
  load_scratch.assign(nr, 0.0);
  double* load = load_scratch.data();

  const graph::Graph& tg = tig_->graph();
  const double* node_w = tg.node_weights().data();
  const graph::NodeId* assigned = assignment.data();
  if (comm_symmetric_) {
    // Symmetric comm matrix: visit each undirected edge once and charge
    // both endpoints from the same c_{sa,sb} load — half the gathers of
    // the per-task CSR walk below.  The comm matrix has a zero diagonal,
    // so co-located endpoints contribute exactly +0.0 with no branch.
    for (graph::NodeId t = 0; t < assignment.size(); ++t) {
      const graph::NodeId s = assigned[t];
      load[s] += node_w[t] * platform_->processing_cost(s);
    }
    // edges_ is sorted by `a`, so each run of equal-`a` edges shares one
    // comm row; accumulating that side in a register keeps the serial
    // dependency chain out of memory (only the `b` side scatters).
    const std::size_t num_edges = edges_.size();
    const UndirectedEdge* edges = edges_.data();
    for (std::size_t i = 0; i < num_edges;) {
      const graph::NodeId a = edges[i].a;
      const graph::NodeId sa = assigned[a];
      const double* crow =
          platform_->comm_row(0) + static_cast<std::size_t>(sa) * nr;
      double acc = 0.0;
      do {
        const graph::NodeId sb = assigned[edges[i].b];
        const double x = edges[i].w * crow[sb];
        acc += x;
        load[sb] += x;
        ++i;
      } while (i < num_edges && edges[i].a == a);
      load[sa] += acc;
    }
  } else {
    for (graph::NodeId t = 0; t < assignment.size(); ++t) {
      const graph::NodeId s = assigned[t];
      const double* crow = platform_->comm_row(s);
      double comm = 0.0;
      // One contiguous CSR pass per task; the comm matrix has a zero
      // diagonal, so a co-located neighbor (mapped to s) contributes
      // exactly +0.0 and the b != s branch is unnecessary.
      for (const graph::Neighbor& nb : tg.neighbors(t)) {
        comm += nb.weight * crow[assigned[nb.id]];
      }
      load[s] += node_w[t] * platform_->processing_cost(s) + comm;
    }
  }

  double best = 0.0;
  for (std::size_t s = 0; s < nr; ++s) best = std::max(best, load[s]);
  return best;
}

EvalResult CostEvaluator::evaluate(const Mapping& m) const {
  assert(m.num_tasks() == tig_->num_tasks());
  const std::size_t nr = platform_->num_resources();
  EvalResult out;
  out.loads.assign(nr, ResourceLoad{});

  const graph::Graph& tg = tig_->graph();
  const auto assignment = m.assignment();
  for (graph::NodeId t = 0; t < assignment.size(); ++t) {
    const graph::NodeId s = assignment[t];
    if (s >= nr) throw std::out_of_range("CostEvaluator: bad resource id");
    out.loads[s].compute += tg.node_weight(t) * platform_->processing_cost(s);
    const double* crow = platform_->comm_row(s);
    for (const graph::Neighbor& nb : tg.neighbors(t)) {
      const graph::NodeId b = assignment[nb.id];
      if (b != s) out.loads[s].comm += nb.weight * crow[b];
    }
  }

  for (graph::NodeId s = 0; s < nr; ++s) {
    const double total = out.loads[s].total();
    if (total > out.makespan) {
      out.makespan = total;
      out.busiest = s;
    }
  }
  return out;
}

LoadTracker::LoadTracker(const CostEvaluator& eval, const Mapping& initial)
    : eval_(&eval), mapping_(initial) {
  const EvalResult r = eval.evaluate(initial);
  loads_ = r.loads;
}

void LoadTracker::accumulate(graph::NodeId t, double sign) {
  const graph::Graph& tg = eval_->tig().graph();
  const Platform& plat = eval_->platform();
  const graph::NodeId s = mapping_.resource_of(t);
  const double* crow = plat.comm_row(s);

  loads_[s].compute += sign * tg.node_weight(t) * plat.processing_cost(s);
  for (const graph::Neighbor& nb : tg.neighbors(t)) {
    const graph::NodeId b = mapping_.resource_of(nb.id);
    if (b == s) continue;
    // t's side of the exchange, charged to s ...
    loads_[s].comm += sign * nb.weight * crow[b];
    // ... and the neighbor's side, charged to b (c is symmetric in the
    // platform matrix only if the resource graph is; read the b row).
    loads_[b].comm += sign * nb.weight * plat.comm_cost(b, s);
  }
}

void LoadTracker::apply_move(graph::NodeId t, graph::NodeId r) {
  if (mapping_.resource_of(t) == r) return;
  accumulate(t, -1.0);
  mapping_.set(t, r);
  accumulate(t, +1.0);
}

void LoadTracker::apply_swap(graph::NodeId t1, graph::NodeId t2) {
  const graph::NodeId r1 = mapping_.resource_of(t1);
  const graph::NodeId r2 = mapping_.resource_of(t2);
  apply_move(t1, r2);
  apply_move(t2, r1);
}

double LoadTracker::peek_move_delta(graph::NodeId t, graph::NodeId r) const {
  LoadTracker scratch(*this);
  const double before = scratch.makespan();
  scratch.apply_move(t, r);
  return scratch.makespan() - before;
}

double LoadTracker::makespan() const {
  double best = 0.0;
  for (const ResourceLoad& l : loads_) best = std::max(best, l.total());
  return best;
}

}  // namespace match::sim
