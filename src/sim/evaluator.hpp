#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sim/mapping.hpp"
#include "sim/platform.hpp"

namespace match::sim {

/// One record per undirected TIG edge (a < b), packed for streaming and
/// sorted by `a`.  Shared by the per-sample makespan kernel and the SoA
/// batch kernels (sim/batch_eval*.cpp), which walk the same stream.
struct UndirectedEdge {
  graph::NodeId a;
  graph::NodeId b;
  double w;
};

/// Per-resource breakdown of a mapping's cost (eq. (1) of the paper).
struct ResourceLoad {
  double compute = 0.0;  ///< Σ_{t on s} W^t · w_s
  double comm = 0.0;     ///< Σ_{t on s} Σ_{a∼t, map(a)=b≠s} C^{t,a} · c_{s,b}

  double total() const noexcept { return compute + comm; }
};

/// Full evaluation of a mapping.
struct EvalResult {
  double makespan = 0.0;          ///< eq. (2): max over resources
  graph::NodeId busiest = 0;      ///< argmax resource
  std::vector<ResourceLoad> loads;  ///< per-resource breakdown
};

/// Evaluates the paper's cost model (eqs. (1)–(2)) for a TIG on a
/// Platform.  Stateless and thread-safe; batches of samples go through
/// `sim::BatchEvaluator` (sim/batch_eval.hpp).
class CostEvaluator {
 public:
  CostEvaluator(const graph::Tig& tig, const Platform& platform);

  std::size_t num_tasks() const noexcept { return tig_->num_tasks(); }
  std::size_t num_resources() const noexcept {
    return platform_->num_resources();
  }

  /// Application execution time Exec^χ (eq. (2)).
  double makespan(const Mapping& m) const;

  /// Raw assignment-span overload used by the hot samplers (no Mapping
  /// object construction).  Allocates a transient load buffer; hot loops
  /// should prefer the scratch overload below.
  double makespan(std::span<const graph::NodeId> assignment) const;

  /// Zero-allocation overload: `load_scratch` is resized to
  /// `num_resources()` and fully overwritten, so the same vector can be
  /// reused across calls (no heap traffic after the first call).  The
  /// caller owns the buffer; contents on return are the per-resource
  /// total loads of this assignment.
  double makespan(std::span<const graph::NodeId> assignment,
                  std::vector<double>& load_scratch) const;

  /// Full per-resource breakdown.
  EvalResult evaluate(const Mapping& m) const;

  const graph::Tig& tig() const noexcept { return *tig_; }
  const Platform& platform() const noexcept { return *platform_; }

  /// True when the comm matrix satisfies c_{s,b} == c_{b,s} for all
  /// pairs (every generator-built platform).  Gates the edge-streaming
  /// kernels — per-sample and batch — which charge both endpoints from
  /// one comm load.
  bool comm_symmetric() const noexcept { return comm_symmetric_; }

  /// The precomputed undirected edge stream (a < b, sorted by a); the
  /// batch kernels in sim/batch_eval*.cpp walk it directly.
  std::span<const UndirectedEdge> undirected_edges() const noexcept {
    return edges_;
  }

 private:
  const graph::Tig* tig_;
  const Platform* platform_;
  std::vector<UndirectedEdge> edges_;
  bool comm_symmetric_ = false;
};

/// Incrementally maintained per-resource loads for local-search moves.
///
/// `apply_move(t, r)` updates all affected resources in O(deg(t)); the
/// exact loads always match a from-scratch `CostEvaluator::evaluate`.
/// Supports general many-to-one assignments, so a permutation swap is two
/// consecutive moves.
class LoadTracker {
 public:
  LoadTracker(const CostEvaluator& eval, const Mapping& initial);

  /// Moves task `t` to resource `r`, updating loads incrementally.
  void apply_move(graph::NodeId t, graph::NodeId r);

  /// Exchanges the resources of two tasks.
  void apply_swap(graph::NodeId t1, graph::NodeId t2);

  /// Cost change that `apply_move(t, r)` would cause (positive = worse),
  /// computed without mutating the tracker.
  double peek_move_delta(graph::NodeId t, graph::NodeId r) const;

  double makespan() const;
  const Mapping& mapping() const noexcept { return mapping_; }
  const std::vector<ResourceLoad>& loads() const noexcept { return loads_; }

 private:
  /// Adds (sign=+1) or removes (sign=-1) task t's contributions, assuming
  /// `mapping_[t]` currently names the resource the contribution targets.
  void accumulate(graph::NodeId t, double sign);

  const CostEvaluator* eval_;
  Mapping mapping_;
  std::vector<ResourceLoad> loads_;
};

}  // namespace match::sim
