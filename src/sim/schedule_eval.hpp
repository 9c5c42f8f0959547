#pragma once

// Schedule-aware cost model for precedence DAGs.
//
// The TIG `CostEvaluator` charges each resource its total load and takes
// the busiest one — precedence-free, so any assignment is "executable".
// A DAG workload is different: a task cannot start before every
// predecessor has finished *and* its output data has arrived, so the
// makespan is the largest task *finish time* of an actual schedule, not a
// load maximum.  `ScheduleEvaluator` provides that model in two modes:
//
//  * assignment mode (`makespan`): the caller hands a task → resource
//    assignment; tasks execute in the canonical topological order, each
//    starting at max(resource free, data ready).  This is the
//    deterministic "given this placement, how long does it run" cost a
//    mapper that outputs assignments can optimize directly.
//
//  * priority mode (`schedule_priorities`): HEFT-class list scheduling —
//    the caller hands a *priority permutation*; tasks are popped from the
//    ready set in priority order, and each picks the resource that
//    finishes it earliest (insertion-based EFT, i.e. idle gaps between
//    already-placed tasks are usable).  This is the mode CE optimizes
//    over when the sample space is priority orders (core/dag_ce.hpp).
//
// Both modes follow the caller-scratch discipline of `CostEvaluator`:
// `Scratch` buffers are sized on first use and fully overwritten, so the
// steady state allocates nothing.  Priority mode, the one DAG CE runs,
// also has a `SampleBlock` batch entry point: scalar lanes (the busy-list
// gap scan resists vectorization) spread across the thread pool.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/dag.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/scratch.hpp"
#include "sim/batch_eval.hpp"
#include "sim/platform.hpp"

namespace match::sim {

/// A complete schedule: the assignment plus per-task start/finish times.
/// `makespan` is max(finish) — 0 for an empty DAG.
struct Schedule {
  std::vector<graph::NodeId> assignment;  ///< task → resource
  std::vector<double> start;              ///< per-task start time
  std::vector<double> finish;             ///< per-task finish time
  double makespan = 0.0;
};

class ScheduleEvaluator {
 public:
  ScheduleEvaluator(const graph::Dag& dag, const Platform& platform);

  std::size_t num_tasks() const noexcept { return dag_->num_nodes(); }
  std::size_t num_resources() const noexcept {
    return platform_->num_resources();
  }

  /// Name of the kernel every entry point runs, reported via the
  /// `solver.backend.<name>` metric by the DAG solvers: always "scalar".
  const char* backend_name() const noexcept {
    return to_string(EvalBackend::kScalar);
  }

  /// Caller-owned scratch: every buffer is (re)sized on first use with
  /// this evaluator's geometry and fully overwritten per call, so one
  /// Scratch reused across calls allocates only until capacities warm up.
  struct Scratch {
    std::vector<double> finish;         ///< per-task finish time
    std::vector<double> start;          ///< per-task start time
    std::vector<double> avail;          ///< per-resource next-free time
    std::vector<std::uint32_t> indegree;  ///< per-task open predecessors
    std::vector<std::uint32_t> heap;    ///< ready min-heap (priority mode)
    std::vector<std::uint32_t> slot;    ///< task → priority slot
    std::vector<graph::NodeId> assign;  ///< task → resource (priority mode)
    /// Priority-mode busy intervals: one flat arena instead of 2·nr
    /// vectors.  Resource r's sorted, non-overlapping (start, finish)
    /// pairs live interleaved at [r·stride, r·stride + 2·busy_len[r]),
    /// terminated by a (+inf, +inf) sentinel pair so the EFT gap scan
    /// needs no length compare; stride = 2·(num_tasks + 1).
    std::vector<double> busy;
    std::vector<std::uint32_t> busy_len;  ///< per-resource interval count
  };

  /// Assignment mode: executes tasks in the canonical topological order
  /// on the given task → resource assignment and returns the makespan.
  /// No insertion — each resource runs its tasks back to back in
  /// topological order, which keeps the cost a pure O(V + E) function of
  /// the assignment (the property the CE samplers need).  Throws
  /// `std::invalid_argument` on a size mismatch or an out-of-range
  /// resource id.
  double makespan(std::span<const graph::NodeId> assignment,
                  Scratch& scratch) const;

  /// Transient-scratch convenience overload.
  double makespan(std::span<const graph::NodeId> assignment) const;

  /// Priority mode: `priority[k]` names the k-th most urgent task (any
  /// permutation of [0, num_tasks) — precedence feasibility is enforced
  /// by the ready set, the permutation only breaks ties among ready
  /// tasks).  Each popped task is placed on the resource with the
  /// earliest *insertion-based* finish time (ties → lower resource id).
  /// Returns the makespan; fills `*out` with the full schedule when
  /// non-null.
  double schedule_priorities(std::span<const graph::NodeId> priority,
                             Scratch& scratch, Schedule* out = nullptr) const;

  /// HEFT upward ranks: rank(t) = mean-exec(t) + max over successors s of
  /// (mean-comm(t→s) + rank(s)), with mean-exec over the exec-cost table
  /// row and mean-comm over distinct resource pairs.  Descending rank is
  /// the HEFT priority (see baselines/heft.hpp).
  std::vector<double> upward_ranks() const;

  /// Priority mode over `SampleBlock` lanes (same layout the CE fused
  /// loop already produces): out[i] = `schedule_priorities` of lane i.
  /// Scalar lanes over pooled scratch, parallel across lanes only, so
  /// results do not depend on thread count or chunk geometry.
  void priority_makespans_batch(const SampleBlock& block,
                                std::span<double> out,
                                const parallel::ForOptions& opts = {}) const;

  const graph::Dag& dag() const noexcept { return *dag_; }
  const Platform& platform() const noexcept { return *platform_; }

  /// The canonical topological order assignment mode executes in.
  std::span<const graph::NodeId> topo_order() const noexcept {
    return topo_order_;
  }

  /// Precomputed task × resource execution costs, row-major:
  /// `exec_costs()[t * num_resources() + r]` = node_weight(t) ·
  /// processing_cost(r).  Built once at construction and shared by both
  /// modes, `upward_ranks`, and HEFT.
  std::span<const double> exec_costs() const noexcept { return exec_; }
  double exec_cost(std::size_t t, std::size_t r) const noexcept {
    return exec_[t * platform_->num_resources() + r];
  }

 private:
  struct BatchScratch {
    Scratch sched;
    std::vector<graph::NodeId> row;
  };

  const graph::Dag* dag_;
  const Platform* platform_;
  std::vector<graph::NodeId> topo_order_;
  std::vector<double> exec_;  ///< num_tasks × num_resources
  mutable parallel::ScratchPool<BatchScratch> pool_;
};

/// Checks a schedule against the DAG's precedence constraints and the
/// platform's exclusivity constraint: every task starts no earlier than
/// each predecessor's finish plus the data-transfer delay, runs for
/// exactly its execution time, and no two tasks overlap on one resource.
/// On failure returns false and, when `why` is non-null, describes the
/// first violation found.
bool schedule_feasible(const graph::Dag& dag, const Platform& platform,
                       const Schedule& schedule, std::string* why = nullptr);

}  // namespace match::sim
