#pragma once

// The one cross-entropy engine (paper Fig. 2).
//
// Every CE solver in the library is a *problem* run by `CeEngine`:
// MaTCH (Fig. 5, core/matchalgo), the general many-to-one mapper
// (core/general_match), each island of the island model (core/island,
// which drives `CeEngine::step` between migrations), DAG CE over priority
// permutations (core/dag_ce), and the max-cut adapter (core/maxcut).  The
// engine owns the loop: the elite cut, best-so-far (with a scalar
// recompute guard), smoothing schedule, stop rules, cancellation with the
// fallback draw, and the telemetry (phase timings, iteration events, the
// `<solver>.iterations` counter).  A problem owns its distribution: how a
// batch is drawn from the run's RNG stream, how it is evaluated, and how
// the elite lanes re-estimate it.
//
// Samples live only in a `sim::SampleBlock` (task-major lanes); the
// engine gathers a lane back into a contiguous row only for a new best,
// a per-lane cost, or the fallback draw.

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ce_params.hpp"
#include "core/run_summary.hpp"
#include "core/solver_context.hpp"
#include "core/stochastic_matrix.hpp"
#include "core/stop.hpp"
#include "graph/graph.hpp"
#include "obs/scoped_timer.hpp"
#include "parallel/parallel_for.hpp"
#include "rng/rng.hpp"
#include "sim/batch_eval.hpp"

namespace match::core {

/// Why a CE run stopped.
enum class StopReason {
  kRowMaxStable,   ///< eq. (12): per-row maxima unchanged for `c` iterations
  kDegenerate,     ///< the distribution collapsed (Fig. 3 endpoint)
  kGammaStable,    ///< Fig. 2 step 4: γ̂ stalled for `k` iterations
  kMaxIterations,  ///< safety cap reached
  kCancelled,      ///< the context's stop hook fired (deadline etc.)
  kTargetReached,  ///< best-so-far reached the target cost
};

/// Human-readable name of a stop reason (for logs and bench output).
inline const char* to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kRowMaxStable:
      return "row-max-stable";
    case StopReason::kDegenerate:
      return "degenerate";
    case StopReason::kGammaStable:
      return "gamma-stable";
    case StopReason::kMaxIterations:
      return "max-iterations";
    case StopReason::kCancelled:
      return "cancelled";
    case StopReason::kTargetReached:
      return "target-reached";
  }
  return "unknown";
}

/// Which samples update the distribution.
enum class EliteRule {
  /// Every sample with cost ≤ γ (the eq. 11 indicator): keeps all ties at
  /// γ, and supports the literal Fig.-5 γ (`CeLoop::literal_elite`).
  kThreshold,
  /// Exactly the ⌊ρN⌋ cheapest samples, however many tie at γ.
  kQuantile,
};

/// When γ counts as stalled for the γ-stall stop.
enum class StallRule {
  kUnchanged,  ///< |γ_k − γ_{k−1}| ≤ `stability_eps`
  kNoGain,     ///< γ gained nothing > 1e-12 over its running minimum
};

/// Per-iteration convergence record.  The matrix fields stay 0 for
/// problems without a stochastic matrix.
struct IterationStats {
  std::size_t iteration = 0;
  double gamma = 0.0;          ///< elite threshold γ_k
  double iter_best = 0.0;      ///< best cost in this batch
  double best_so_far = 0.0;    ///< best cost over all batches
  double mean_entropy = 0.0;   ///< mean row entropy of P (bits)
  double min_row_max = 0.0;    ///< degeneracy measure of P
  double row_max_mean = 0.0;   ///< mean over rows of max_j p_ij
  std::size_t elite_count = 0;
};

/// Outcome of an engine run.  `best_cost`, `iterations`, `cancelled` and
/// `degenerate` live in the `RunSummary` base and mirror `stop_reason`.
struct CeResult : RunSummary {
  std::vector<graph::NodeId> best;  ///< best sample of the whole run
  StopReason stop_reason = StopReason::kMaxIterations;
  std::vector<IterationStats> history;
};

/// The engine's view of one run, resolved from each solver's params.
/// `stability_window` and `stability_eps` apply only where the problem
/// exposes a matrix (eq. 12) or uses `StallRule::kUnchanged`.
struct CeLoop : CeStopParams {
  const char* solver = "ce";  ///< telemetry name (phases, events, counter)
  std::size_t lanes = 2;      ///< N, samples per iteration
  double rho = 0.1;           ///< elite fraction
  double zeta = 0.7;          ///< smoothing weight of eq. (13)
  /// > 0 decays the smoothing over iterations (de Boer et al. §5):
  /// ζ_k = ζ · (1 − (1 − 1/(k+1))^q).
  double dynamic_smoothing_q = 0.0;
  /// kThreshold only: γ = the ⌊ρN⌋-th *largest* cost (ablation).
  bool literal_elite = false;
  double target_cost = 0.0;  ///< stop once best ≤ this (0 disables)
};

/// Parameters of the generic entry point `run_ce` (paper Fig. 2).
struct CeDriverParams {
  double rho = 0.1;               ///< elite fraction
  double zeta = 0.7;              ///< smoothing factor (1 = coarse update)
  std::size_t sample_size = 256;  ///< N per iteration
  std::size_t max_iterations = 500;
  /// Stop when γ has not improved for this many consecutive iterations
  /// (the generic analogue of the paper's eq. (12) stability check).
  std::size_t gamma_stall_window = 8;
  double degeneracy_eps = 1e-3;
  /// Stop once best-so-far ≤ this value (0 — the default — disables the
  /// check); mirrors `MatchParams::target_cost` for the generic loop.
  double target_cost = 0.0;

  void validate() const {
    if (!(rho > 0.0 && rho < 1.0)) throw std::invalid_argument("CE: rho");
    if (!(zeta > 0.0 && zeta <= 1.0)) throw std::invalid_argument("CE: zeta");
    if (sample_size < 2) throw std::invalid_argument("CE: sample_size");
    if (max_iterations == 0) throw std::invalid_argument("CE: max_iterations");
    if (gamma_stall_window == 0) throw std::invalid_argument("CE: stall");
    if (target_cost < 0.0) throw std::invalid_argument("CE: target_cost");
  }
};

/// Eq. (11) then eq. (13): re-estimates `p` from how often each column
/// appears in each row of the elite lanes, and blends the estimate in
/// with weight `zeta`.  Row t's counts live in the disjoint slice
/// counts[t·cols, (t+1)·cols) and every increment is an exact +1.0, so the
/// result is independent of chunking and thread timing.
inline void update_from_elite(StochasticMatrix& p, const sim::SampleBlock& block,
                              std::span<const std::size_t> elite, double zeta,
                              std::vector<double>& counts,
                              const parallel::ForOptions& opts) {
  const std::size_t rows = p.rows();
  const std::size_t cols = p.cols();
  counts.assign(rows * cols, 0.0);
  parallel::parallel_for_chunked(
      0, rows,
      [&](std::size_t lo, std::size_t hi, std::size_t /*chunk*/) {
        for (std::size_t t = lo; t < hi; ++t) {
          const graph::NodeId* lane = block.task_row(t);
          double* ct = counts.data() + t * cols;
          for (const std::size_t i : elite) ct[lane[i]] += 1.0;
        }
      },
      opts);
  for (double& c : counts) c /= static_cast<double>(elite.size());
  p.blend_from(StochasticMatrix::from_values_unchecked(rows, cols, counts),
               zeta);
}

/// Books one iteration: the `<solver>.iterations` counter and the
/// `kIteration` event.
inline void report_iteration(const SolverContext& ctx, const char* solver,
                             const IterationStats& s, obs::Counter* counter) {
  if (counter != nullptr) counter->add();
  ctx.emit(obs::Event::iteration_event(
      ctx.run_id(), solver, s.iteration, s.gamma, s.iter_best, s.best_so_far,
      s.gamma - s.iter_best, s.row_max_mean, s.mean_entropy, s.elite_count));
}

/// A problem the engine can run:
///
/// ```
/// static constexpr EliteRule kElite;   // elite membership
/// static constexpr StallRule kStall;   // γ-stall rule
/// std::size_t sample_length() const;   // entries per sample (block rows)
/// void draw(std::span<graph::NodeId> sample, rng::Rng&);
///                                      // one sample; lanes are drawn in
///                                      // sequence unless a batch draw
///                                      // exists, and the cancel fallback
///                                      // always uses this
/// double cost(std::span<const graph::NodeId> sample);      // and/or
/// void evaluate(const sim::SampleBlock&, std::span<double> costs);
/// void update(const sim::SampleBlock&, std::span<const std::size_t> elite,
///             double zeta);            // re-estimate + smooth
/// bool degenerate(double eps) const;   // distribution has collapsed
/// ```
///
/// Optional members change how the engine runs the problem:
/// - `void draw(sim::SampleBlock&, rng::Rng&)` draws the whole batch (the
///   mappers seed each lane from one iteration seed).
/// - With both `evaluate` and `cost`, the batch kernel is the fast path
///   and `cost` the reference: each new best is re-checked with `cost`,
///   so `best_cost` is exactly `cost(best)` even where a SIMD kernel
///   rounds differently.
/// - `const StochasticMatrix& matrix() const` turns on the eq. (12)
///   row-max stop and the entropy / row-max telemetry fields.
template <typename P>
concept CeProblem = requires(P& p, const P& cp, std::span<graph::NodeId> row,
                             const sim::SampleBlock& block, rng::Rng& rng,
                             std::span<const std::size_t> elite) {
  { P::kElite } -> std::convertible_to<EliteRule>;
  { P::kStall } -> std::convertible_to<StallRule>;
  { cp.sample_length() } -> std::convertible_to<std::size_t>;
  p.draw(row, rng);
  p.update(block, elite, 0.5);
  { cp.degenerate(1e-3) } -> std::convertible_to<bool>;
};

template <CeProblem Problem>
class CeEngine {
 public:
  /// `ctx` supplies the telemetry; `run` and `fallback` take it again for
  /// the stop hook and the RNG.
  CeEngine(Problem& problem, const CeLoop& loop, const SolverContext& ctx)
      : problem_(&problem),
        loop_(loop),
        probe_(ctx.sink(), ctx.metrics(), loop.solver, ctx.run_id()),
        rho_count_(std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::floor(loop.rho * static_cast<double>(loop.lanes))))),
        block_(problem.sample_length(), loop.lanes),
        costs_(loop.lanes),
        lanes_(loop.lanes),
        row_(problem.sample_length()) {
    if constexpr (Problem::kElite == EliteRule::kThreshold) {
      gamma_scratch_.resize(loop.lanes);
    }
  }

  /// One CE iteration (Fig. 2 steps 2-3): draw N samples, evaluate them,
  /// cut the elite set at γ, keep the best, and update the distribution.
  IterationStats step(std::size_t iter, rng::Rng& rng) {
    if constexpr (requires { problem_->draw(block_, rng); }) {
      problem_->draw(block_, rng);
    } else {
      for (std::size_t i = 0; i < block_.size(); ++i) {
        problem_->draw(std::span<graph::NodeId>(row_), rng);
        block_.store_sample(i, row_);
      }
    }
    probe_.split("draw");
    evaluate(block_, costs_);
    probe_.split("cost");
    const Cut cut = cut_elite();
    probe_.split("sort");

    const double iter_best = costs_[cut.best];
    if (iter_best < best_cost_) {
      block_.load_sample(cut.best, row_);
      double exact = iter_best;
      if constexpr (kBatchCost && kLaneCost) exact = problem_->cost(row_);
      if (exact < best_cost_) {
        best_cost_ = exact;
        best_ = row_;
      }
    }
    problem_->update(block_, cut.elite, zeta(iter));
    probe_.split("update");

    IterationStats stats;
    stats.iteration = iter;
    stats.gamma = cut.gamma;
    stats.iter_best = iter_best;
    stats.best_so_far = best_cost_;
    stats.elite_count = cut.elite.size();
    return stats;
  }

  /// Runs to a stop rule.  `on_iteration(stats)` sees every iteration
  /// after the update.  The stop hook is polled before each batch; when it
  /// fires before the first, `fallback` supplies the result.
  template <typename OnIteration>
  CeResult run(const SolverContext& ctx, OnIteration&& on_iteration) {
    rng::Rng& rng = ctx.rng();
    obs::Counter* counter =
        ctx.metrics() != nullptr
            ? &ctx.metrics()->counter(std::string(loop_.solver) + ".iterations")
            : nullptr;
    CeResult result;
    std::size_t stable_iters = 0;
    std::size_t gamma_stall = 0;
    double prev_gamma = std::numeric_limits<double>::infinity();
    if constexpr (kHasMatrix) {
      prev_row_max_.assign(problem_->matrix().rows(), -1.0);
    }

    for (std::size_t iter = 0; iter < loop_.max_iterations; ++iter) {
      if (ctx.stop_requested()) {
        result.stop_reason = StopReason::kCancelled;
        break;
      }
      probe_.start_iteration(iter);
      IterationStats stats = step(iter, rng);
      bool rows_stable = false;
      if constexpr (kHasMatrix) rows_stable = observe_rows(stats);
      result.history.push_back(stats);
      on_iteration(stats);
      report_iteration(ctx, loop_.solver, stats, counter);
      result.iterations = iter + 1;

      // Stop rules, in the paper's order of precedence.
      if (loop_.target_cost > 0.0 && best_cost_ <= loop_.target_cost) {
        result.stop_reason = StopReason::kTargetReached;
        break;
      }
      if constexpr (kHasMatrix) {
        stable_iters = rows_stable ? stable_iters + 1 : 0;
        if (stable_iters >= loop_.stability_window) {
          result.stop_reason = StopReason::kRowMaxStable;
          break;
        }
      }
      if (problem_->degenerate(loop_.degeneracy_eps)) {
        result.stop_reason = StopReason::kDegenerate;
        break;
      }
      if constexpr (Problem::kStall == StallRule::kUnchanged) {
        gamma_stall = std::abs(stats.gamma - prev_gamma) <= loop_.stability_eps
                          ? gamma_stall + 1
                          : 0;
        prev_gamma = stats.gamma;
      } else {
        gamma_stall = stats.gamma < prev_gamma - 1e-12 ? 0 : gamma_stall + 1;
        prev_gamma = std::min(prev_gamma, stats.gamma);
      }
      if (gamma_stall >= loop_.gamma_stall_window) {
        result.stop_reason = StopReason::kGammaStable;
        break;
      }
    }

    if (result.iterations == 0 && !std::isfinite(best_cost_)) {
      fallback(rng, ctx);
    }
    result.best_cost = best_cost_;
    result.best = best_;
    result.cancelled = result.stop_reason == StopReason::kCancelled;
    result.degenerate = result.stop_reason == StopReason::kDegenerate;
    return result;
  }

  CeResult run(const SolverContext& ctx) {
    return run(ctx, [](const IterationStats&) {});
  }

  /// Cancelled before any batch completed: evaluates a single draw so the
  /// caller always receives a valid sample (core/stop.hpp).  The extra
  /// evaluation runs after the deadline already expired, so it is booked
  /// (`fallback_draw` event, `solver.fallback_draws`) for operators to
  /// see budgets too tight for even one batch.
  void fallback(rng::Rng& rng, const SolverContext& ctx) {
    problem_->draw(std::span<graph::NodeId>(row_), rng);
    if constexpr (kLaneCost) {
      best_cost_ = problem_->cost(row_);
    } else {
      sim::SampleBlock one(row_.size(), 1);
      one.store_sample(0, row_);
      problem_->evaluate(one, std::span<double>(&best_cost_, 1));
    }
    best_ = row_;
    ctx.emit(obs::Event::fallback_draw(ctx.run_id(), loop_.solver));
    if (ctx.metrics() != nullptr) {
      ctx.metrics()->counter("solver.fallback_draws").add();
    }
  }

  double best_cost() const noexcept { return best_cost_; }
  std::span<const graph::NodeId> best() const noexcept { return best_; }

 private:
  static constexpr bool kLaneCost =
      requires(Problem& p, std::span<const graph::NodeId> s) {
        { p.cost(s) } -> std::convertible_to<double>;
      };
  static constexpr bool kBatchCost =
      requires(Problem& p, const sim::SampleBlock& b, std::span<double> c) {
        p.evaluate(b, c);
      };
  static constexpr bool kHasMatrix = requires(const Problem& p) {
    { p.matrix() } -> std::convertible_to<const StochasticMatrix&>;
  };

  struct Cut {
    double gamma;
    std::size_t best;  ///< lane of the batch's cheapest sample
    std::span<const std::size_t> elite;
  };

  void evaluate(const sim::SampleBlock& block, std::span<double> costs) {
    if constexpr (kBatchCost) {
      problem_->evaluate(block, costs);
    } else {
      for (std::size_t i = 0; i < block.size(); ++i) {
        block.load_sample(i, row_);
        costs[i] = problem_->cost(row_);
      }
    }
  }

  Cut cut_elite() {
    const std::size_t n = costs_.size();
    if constexpr (Problem::kElite == EliteRule::kQuantile) {
      // Only the ⌊ρN⌋ smallest costs matter: O(N) selection, then the
      // elite prefix sorted ascending.
      std::iota(lanes_.begin(), lanes_.end(), std::size_t{0});
      const auto by_cost = [this](std::size_t a, std::size_t b) {
        return costs_[a] < costs_[b];
      };
      const auto k = static_cast<std::ptrdiff_t>(rho_count_);
      std::nth_element(lanes_.begin(), lanes_.begin() + (k - 1), lanes_.end(),
                       by_cost);
      std::sort(lanes_.begin(), lanes_.begin() + k, by_cost);
      return {costs_[lanes_[rho_count_ - 1]], lanes_[0],
              std::span<const std::size_t>(lanes_.data(), rho_count_)};
    } else {
      // γ is one order statistic, so an O(N) selection replaces the sort.
      // The literal Fig.-5 reading sorts descending and takes s_{⌊ρN⌋};
      // with the S ≤ γ indicator it keeps ~(1−ρ)N samples (ablation only).
      const std::size_t kth = loop_.literal_elite
                                  ? n - 1 - std::min(rho_count_, n - 1)
                                  : rho_count_ - 1;
      std::copy(costs_.begin(), costs_.end(), gamma_scratch_.begin());
      std::nth_element(gamma_scratch_.begin(),
                       gamma_scratch_.begin() + static_cast<std::ptrdiff_t>(kth),
                       gamma_scratch_.end());
      const double gamma = gamma_scratch_[kth];
      // Min-scan: the smallest index wins ties.
      std::size_t best = 0;
      for (std::size_t i = 1; i < n; ++i) {
        if (costs_[i] < costs_[best]) best = i;
      }
      std::size_t count = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (costs_[i] <= gamma) lanes_[count++] = i;
      }
      return {gamma, best, std::span<const std::size_t>(lanes_.data(), count)};
    }
  }

  double zeta(std::size_t iter) const {
    if (loop_.dynamic_smoothing_q <= 0.0) return loop_.zeta;
    const double k = static_cast<double>(iter + 1);
    const double z =
        loop_.zeta * (1.0 - std::pow(1.0 - 1.0 / k, loop_.dynamic_smoothing_q));
    return z <= 0.0 ? 1e-6 : z;  // keep the blend well-defined
  }

  /// Fills the matrix fields of `stats`; true when every row max moved by
  /// at most `stability_eps` since the last iteration (eq. 12).
  bool observe_rows(IterationStats& stats) {
    const StochasticMatrix& p = problem_->matrix();
    bool stable = true;
    double row_max_sum = 0.0;
    for (std::size_t i = 0; i < p.rows(); ++i) {
      const double mu = p.row_max(i);
      row_max_sum += mu;
      if (std::abs(mu - prev_row_max_[i]) > loop_.stability_eps) stable = false;
      prev_row_max_[i] = mu;
    }
    stats.mean_entropy = p.mean_entropy();
    stats.min_row_max = p.min_row_max();
    stats.row_max_mean = row_max_sum / static_cast<double>(p.rows());
    return stable;
  }

  Problem* problem_;
  CeLoop loop_;
  obs::PhaseProbe probe_;
  std::size_t rho_count_;
  sim::SampleBlock block_;
  std::vector<double> costs_;
  std::vector<std::size_t> lanes_;  ///< cut order, then the elite lanes
  std::vector<double> gamma_scratch_;
  std::vector<graph::NodeId> row_;  ///< one lane gathered contiguous
  std::vector<double> prev_row_max_;
  double best_cost_ = std::numeric_limits<double>::infinity();
  std::vector<graph::NodeId> best_;
};

/// Generic CE minimization (paper Fig. 2) over any `CeProblem`, with the
/// stop rules of `CeDriverParams`.  The context supplies the RNG stream
/// (required), an optional stop hook and telemetry.  Tracing never
/// touches the RNG stream, so a traced run's result is identical to an
/// untraced one.
template <CeProblem Problem>
CeResult run_ce(Problem& problem, const CeDriverParams& params,
                const SolverContext& ctx) {
  params.validate();
  CeLoop loop;
  loop.lanes = params.sample_size;
  loop.rho = params.rho;
  loop.zeta = params.zeta;
  loop.target_cost = params.target_cost;
  loop.max_iterations = params.max_iterations;
  loop.gamma_stall_window = params.gamma_stall_window;
  loop.degeneracy_eps = params.degeneracy_eps;
  return CeEngine<Problem>(problem, loop, ctx).run(ctx);
}

}  // namespace match::core
