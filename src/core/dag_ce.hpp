#pragma once

// Cross-entropy over priority permutations for DAG scheduling.
//
// MaTCH's CE machinery optimizes over permutation mappings; for DAG
// workloads the natural permutation space is *priority orders*: a
// priority permutation fed to the insertion-based list scheduler
// (`sim::ScheduleEvaluator::schedule_priorities`) yields a full timed
// schedule, so CE searches the space of list-scheduling priorities —
// exactly the degree of freedom that separates HEFT from its
// competitors.  The stochastic matrix parameterizes P[slot][task]
// ("which task is the k-th most urgent"), `GenPermSampler` draws valid
// permutations from it, and the elite update re-estimates slot→task
// frequencies — the same GenPerm + elite-frequency scheme as MaTCH, run
// by the one CE engine (core/ce_driver.hpp) with the generic `run_ce`
// stop rules.

#include <cstddef>
#include <vector>

#include "core/ce_driver.hpp"
#include "core/ce_params.hpp"
#include "core/solver_context.hpp"
#include "sim/mapping.hpp"
#include "sim/schedule_eval.hpp"

namespace match::core {

/// Parameters of the DAG priority-space CE solver.  The shared knobs
/// live in the `CeCommonParams` base; `sample_size` 0 resolves to
/// max(64, 2·tasks) — priority space is n-dimensional, not n²-, so the
/// paper's 2n² batch would overspend.  `parallel` spreads each batch's
/// cost pass across the context's thread pool (lane results are
/// thread-count-independent, so parallel and serial runs agree exactly).
/// `eval_backend` is ignored: the priority-mode cost pass always runs
/// scalar lanes (the insertion-EFT gap scan resists vectorization), and
/// the run books `solver.backend.scalar` whatever the field says.
struct DagCeParams : CeCommonParams {
  std::size_t max_iterations = 200;
  std::size_t gamma_stall_window = 10;
  double degeneracy_eps = 1e-3;
  /// GenPerm visits priority slots in random order (avoids the early-slot
  /// bias a fixed order would give); fixed order for ablations.
  bool random_task_order = true;

  void validate() const;
};

/// Outcome of a DAG CE run.  `best_cost` is the makespan; the schedule
/// is the best priority's full timed schedule (re-derived once at the
/// end — the list scheduler is deterministic, so it reproduces the cost
/// the run observed).
struct DagCeResult : match::RunSummary {
  std::vector<graph::NodeId> best_priority;
  sim::Mapping best_mapping;
  sim::Schedule schedule;
  std::size_t evaluations = 0;  ///< list-scheduler invocations spent
  std::vector<IterationStats> history;
  double elapsed_seconds = 0.0;
};

/// Runs CE over priority permutations on `eval`'s DAG + platform.  The
/// context supplies the RNG stream (required), stop hook, thread pool and
/// telemetry; determinism and cancellation semantics follow `run_ce`
/// (including the single fallback draw when cancelled before the first
/// batch).
DagCeResult solve_dag_ce(const sim::ScheduleEvaluator& eval,
                         const DagCeParams& params,
                         const match::SolverContext& ctx);

}  // namespace match::core
