#pragma once

// The paper's footnote made concrete: "a few simple modifications of the
// algorithm(s) will in effect take care of other cases" — the case being
// |V_t| != |V_r|, where a mapping is many-to-one instead of a
// permutation.  The CE machinery is unchanged (stochastic matrix over
// tasks x resources, elite-frequency update, smoothing); only the sampler
// differs: without the uniqueness constraint each task draws its resource
// independently from its own row, exactly the "naive" generator the paper
// describes before introducing GenPerm.

#include <cstdint>
#include <functional>
#include <vector>

#include "core/matchalgo.hpp"
#include "core/solver_context.hpp"
#include "core/stochastic_matrix.hpp"
#include "rng/rng.hpp"
#include "sim/evaluator.hpp"
#include "sim/mapping.hpp"

namespace match::core {

/// Parameters for the general (many-to-one) CE mapper.  Semantics match
/// `MatchParams`; the shared knobs live in the `core::CeCommonParams`
/// base (`sample_size` 0 → 2 · tasks · resources, the rectangular
/// analogue of the paper's 2n²).  The base's `sampler` field is accepted
/// but ignored: without the permutation constraint each task draws its
/// resource independently from its own row, so there is no GenPerm
/// backend to select.  The stop rules live in the `CeStopParams` base,
/// with MaTCH's defaults.
struct GeneralMatchParams : CeCommonParams, CeStopParams {
  void validate() const;
};

/// Cross-entropy mapping for instances with any task/resource counts.
///
/// Tasks may share resources; the evaluator's cost model already charges
/// co-located neighbors zero communication, so clustering heavy
/// communicators emerges naturally from the optimization.
class GeneralMatchOptimizer {
 public:
  using TraceFn =
      std::function<void(const IterationStats&, const StochasticMatrix&)>;

  explicit GeneralMatchOptimizer(const sim::CostEvaluator& eval,
                                 GeneralMatchParams params = {});

  void set_trace(TraceFn trace) { trace_ = std::move(trace); }

  std::size_t effective_sample_size() const noexcept { return sample_size_; }

  /// Runs the general mapper.  The stop hook is polled once per
  /// iteration; on cancellation the best-so-far mapping is reported
  /// (with a single naive fallback draw if no batch completed).
  MatchResult run(const SolverContext& ctx);

 private:
  const sim::CostEvaluator* eval_;
  GeneralMatchParams params_;
  std::size_t tasks_;
  std::size_t resources_;
  std::size_t sample_size_;
  TraceFn trace_;
};

}  // namespace match::core
