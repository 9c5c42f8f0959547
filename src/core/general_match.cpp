#include "core/general_match.hpp"

#include <limits>
#include <string>

#include "parallel/parallel_for.hpp"
#include "rng/splitmix64.hpp"

namespace match::core {

void GeneralMatchParams::validate() const {
  validate_common("GeneralMatchParams");
  validate_stop("GeneralMatchParams");
}

GeneralMatchOptimizer::GeneralMatchOptimizer(const sim::CostEvaluator& eval,
                                             GeneralMatchParams params)
    : eval_(&eval),
      params_(params),
      tasks_(eval.num_tasks()),
      resources_(eval.num_resources()) {
  params_.validate();
  sample_size_ =
      params_.sample_size != 0 ? params_.sample_size : 2 * tasks_ * resources_;
  if (sample_size_ < 2) sample_size_ = 2;
}

namespace {

std::uint64_t sample_seed(std::uint64_t iter_seed, std::uint64_t index) {
  rng::SplitMix64 mixer(iter_seed ^ (index * 0x9e3779b97f4a7c15ULL));
  return mixer.next();
}

/// The general mapper as an engine problem: the naive independent-rows
/// sampler (each task draws its resource from its own row of P, no
/// uniqueness constraint), the batch kernel, and MaTCH's update.
class GeneralProblem {
 public:
  static constexpr EliteRule kElite = EliteRule::kThreshold;
  static constexpr StallRule kStall = StallRule::kUnchanged;

  GeneralProblem(const sim::CostEvaluator& eval,
                 const GeneralMatchParams& params, const SolverContext& ctx)
      : eval_(&eval),
        p_(StochasticMatrix::uniform(eval.num_tasks(), eval.num_resources())),
        batch_eval_(eval, params.eval_backend) {
    if (ctx.metrics() != nullptr) {
      ctx.metrics()
          ->counter(std::string("solver.backend.") + batch_eval_.backend_name())
          .add();
    }
    opts_.pool = ctx.pool();
    if (!params.parallel) {
      opts_.serial_cutoff = std::numeric_limits<std::size_t>::max();
    }
  }

  std::size_t sample_length() const { return p_.rows(); }
  const StochasticMatrix& matrix() const { return p_; }
  bool degenerate(double eps) const { return p_.is_degenerate(eps); }

  /// Lanes are seeded from (iteration seed, lane) alone, as in MaTCH.
  void draw(sim::SampleBlock& block, rng::Rng& rng) {
    const std::uint64_t iter_seed = rng.bits();
    parallel::parallel_for_chunked(
        0, block.size(),
        [&](std::size_t lo, std::size_t hi, std::size_t /*chunk*/) {
          std::vector<graph::NodeId> row(p_.rows());
          for (std::size_t i = lo; i < hi; ++i) {
            rng::Rng local(sample_seed(iter_seed, i));
            draw_rows(local, row);
            block.store_sample(i, row);
          }
        },
        opts_);
  }

  /// The cancel fallback: one naive draw.
  void draw(std::span<graph::NodeId> row, rng::Rng& rng) {
    rng::Rng local(rng.bits());
    draw_rows(local, row);
  }

  void evaluate(const sim::SampleBlock& block, std::span<double> costs) {
    batch_eval_.evaluate(block, costs, opts_);
  }

  /// Scalar reference for the engine's recompute guard.
  double cost(std::span<const graph::NodeId> row) {
    return eval_->makespan(row, load_);
  }

  void update(const sim::SampleBlock& block, std::span<const std::size_t> elite,
              double zeta) {
    update_from_elite(p_, block, elite, zeta, counts_, opts_);
  }

 private:
  void draw_rows(rng::Rng& rng, std::span<graph::NodeId> row) const {
    for (std::size_t t = 0; t < row.size(); ++t) {
      row[t] = static_cast<graph::NodeId>(rng.weighted_pick(p_.row(t), 1.0));
    }
  }

  const sim::CostEvaluator* eval_;
  StochasticMatrix p_;
  sim::BatchEvaluator batch_eval_;
  parallel::ForOptions opts_;
  std::vector<double> counts_;
  std::vector<double> load_;  ///< scalar recompute scratch
};

}  // namespace

MatchResult GeneralMatchOptimizer::run(const SolverContext& ctx) {
  GeneralProblem problem(*eval_, params_, ctx);
  CeLoop loop{params_};
  loop.solver = "general";
  loop.lanes = sample_size_;
  loop.rho = params_.rho;
  loop.zeta = params_.zeta;
  loop.target_cost = params_.target_cost;
  return detail::run_mapping(problem, loop, trace_, ctx);
}

}  // namespace match::core
