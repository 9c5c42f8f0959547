#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/ce_driver.hpp"
#include "core/ce_params.hpp"
#include "core/genperm.hpp"
#include "core/run_summary.hpp"
#include "core/solver_context.hpp"
#include "core/stochastic_matrix.hpp"
#include "core/stop.hpp"
#include "rng/rng.hpp"
#include "sim/batch_eval.hpp"
#include "sim/evaluator.hpp"
#include "sim/mapping.hpp"

namespace match::core {

/// Tunable parameters of the MaTCH heuristic.  Defaults reproduce the
/// paper's published configuration.  The cross-solver knobs — `rho`,
/// `zeta`, `sample_size` (0 → the paper's 2·n²), `parallel`,
/// `target_cost`, `sampler`, `eval_backend` — live in the
/// `core::CeCommonParams` base and the stop rules in the `CeStopParams`
/// base (core/ce_params.hpp); MaTCH consumes all of them.
struct MatchParams : CeCommonParams, CeStopParams {
  /// Dynamic smoothing exponent q (de Boer et al. §5 / Rubinstein): when
  /// > 0, the effective smoothing decays over iterations,
  /// ζ_k = ζ · (1 − (1 − 1/(k+1))^q), giving aggressive early updates
  /// and gentle late ones.  0 (default) keeps the paper's constant ζ.
  double dynamic_smoothing_q = 0.0;

  /// GenPerm visits tasks in random order (paper behavior).  Fixed order
  /// is exposed for the ablation study.
  bool random_task_order = true;

  /// Ablation switch: use the literal Fig.-5 elite rule (sort descending,
  /// γ = s_{⌊ρN⌋}) instead of the standard best-ρ-fraction reading.  The
  /// literal rule keeps ~(1−ρ)·N samples "elite" and barely optimizes;
  /// see DESIGN.md §3.
  bool paper_literal_elite = false;

  /// Throws `std::invalid_argument` when a field is out of range.
  void validate() const;
};

/// Outcome of a MaTCH run.  `best_cost` (the makespan Exec^χ),
/// `iterations`, `cancelled`, and `degenerate` live in the `RunSummary`
/// base; `cancelled`/`degenerate` mirror `stop_reason`.
struct MatchResult : RunSummary {
  sim::Mapping best_mapping;   ///< best sample observed over the whole run
  StopReason stop_reason = StopReason::kMaxIterations;
  std::vector<IterationStats> history;
  StochasticMatrix final_matrix;
  double elapsed_seconds = 0.0;
};

/// The MaTCH heuristic (paper Fig. 5): cross-entropy optimization over
/// permutation mappings.
///
/// ```
/// sim::CostEvaluator eval(tig, platform);
/// core::MatchOptimizer matcher(eval);
/// rng::Rng rng(42);
/// core::MatchResult r = matcher.run(match::SolverContext(rng));
/// ```
///
/// Runs are deterministic for a fixed seed and thread-pool size, and
/// independent of whether telemetry is attached.  The pool size still
/// matters: GenPerm's task order restarts at each draw chunk, and the
/// chunking follows the pool's thread count.
class MatchOptimizer {
 public:
  /// Called after each iteration's matrix update with the current P;
  /// used by the Fig.-3 reproduction to snapshot the matrix evolution.
  using TraceFn =
      std::function<void(const IterationStats&, const StochasticMatrix&)>;

  /// Alias for `match::StopFn` (core/stop.hpp).  The hook is supplied
  /// via `SolverContext(rng, stop)` and polled once per iteration before
  /// the batch is drawn; returning true stops the run with
  /// `StopReason::kCancelled` and the best mapping seen so far.  When it
  /// fires before the first batch, a single GenPerm draw is evaluated so
  /// the result always carries a valid permutation.
  using StopFn = match::StopFn;

  /// The evaluator must describe a square instance (|V_t| = |V_r|);
  /// throws `std::invalid_argument` otherwise.
  explicit MatchOptimizer(const sim::CostEvaluator& eval,
                          MatchParams params = {});

  void set_trace(TraceFn trace) { trace_ = std::move(trace); }

  /// Replaces the uniform P_0 with a caller-supplied starting matrix
  /// (must be n x n row-stochastic).  Used by the warm-start re-mapper
  /// (core/rematch.hpp) to bias the search around an incumbent mapping.
  void set_initial_matrix(StochasticMatrix p0);

  /// Pins `task` to `resource` for the whole run (e.g. a stage bound to
  /// a node holding a license or a dataset).  Pinned resources are
  /// withdrawn from every other task's draws.  Pins must name distinct
  /// resources; throws `std::invalid_argument` on conflicts.
  void set_pin(graph::NodeId task, graph::NodeId resource);
  void clear_pins();

  const MatchParams& params() const noexcept { return params_; }

  /// Effective batch size N for this instance.
  std::size_t effective_sample_size() const noexcept { return sample_size_; }

  /// Runs MaTCH to convergence.  The context supplies the RNG stream
  /// (required), stop hook, thread pool, and optional telemetry; with a
  /// sink/metrics pair attached the run emits per-iteration events
  /// (γ, bests, elite spread, P row-max mean and entropy) and
  /// draw/cost/sort/update phase timings without perturbing the RNG
  /// stream.
  MatchResult run(const SolverContext& ctx);

 private:
  const sim::CostEvaluator* eval_;
  MatchParams params_;
  std::size_t n_;
  std::size_t sample_size_;
  TraceFn trace_;
  StochasticMatrix initial_;          ///< empty -> uniform
  std::vector<graph::NodeId> pins_;   ///< empty -> no pins
};

namespace detail {

/// Runs a mapping problem (MaTCH's or the general mapper's) through the
/// engine and packages the `MatchResult`, bracketed by the run's
/// `run_start` / `run_end` events.  `trace` sees each iteration with P.
template <typename Problem>
MatchResult run_mapping(Problem& problem, const CeLoop& loop,
                        const MatchOptimizer::TraceFn& trace,
                        const SolverContext& ctx) {
  const auto t_start = std::chrono::steady_clock::now();
  ctx.emit(obs::Event::run_start(ctx.run_id(), loop.solver));
  CeResult ce = CeEngine<Problem>(problem, loop, ctx)
                    .run(ctx, [&](const IterationStats& stats) {
                      if (trace) trace(stats, problem.matrix());
                    });
  MatchResult result;
  static_cast<RunSummary&>(result) = ce;
  result.best_mapping = sim::Mapping(std::move(ce.best));
  result.stop_reason = ce.stop_reason;
  result.history = std::move(ce.history);
  result.final_matrix = problem.matrix();
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();
  ctx.emit(obs::Event::run_end(ctx.run_id(), loop.solver, result.iterations,
                               result.best_cost, result.elapsed_seconds));
  return result;
}

}  // namespace detail

}  // namespace match::core
