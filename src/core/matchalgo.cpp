#include "core/matchalgo.hpp"

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/genperm.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/scratch.hpp"
#include "rng/splitmix64.hpp"

namespace match::core {

void MatchParams::validate() const {
  validate_common("MatchParams");
  validate_stop("MatchParams");
  if (dynamic_smoothing_q < 0.0) {
    throw std::invalid_argument("MatchParams: dynamic_smoothing_q < 0");
  }
}

MatchOptimizer::MatchOptimizer(const sim::CostEvaluator& eval,
                               MatchParams params)
    : eval_(&eval), params_(params), n_(eval.num_tasks()) {
  params_.validate();
  if (eval.num_resources() != n_) {
    throw std::invalid_argument(
        "MatchOptimizer: requires |V_t| == |V_r| (permutation mapping)");
  }
  sample_size_ = params_.sample_size != 0 ? params_.sample_size : 2 * n_ * n_;
  if (sample_size_ < 2) sample_size_ = 2;
}

namespace {

/// Deterministic per-sample seed: mixing the iteration seed with the
/// sample index makes the run independent of thread count and chunking.
std::uint64_t sample_seed(std::uint64_t iter_seed, std::uint64_t index) {
  rng::SplitMix64 mixer(iter_seed ^ (index * 0x9e3779b97f4a7c15ULL));
  return mixer.next();
}

/// Per-worker reusable hot-loop state, handed out by a ScratchPool: the
/// GenPerm sampler (scratch-heavy, hoisted out of the chunk lambdas so
/// it is built once per worker per run instead of once per chunk per
/// iteration) and the contiguous draw row scattered into the SoA block.
/// Everything here is fully overwritten per use, so timing-dependent
/// chunk→worker assignment cannot perturb results.
struct MatchWorker {
  GenPermSampler sampler;
  std::vector<graph::NodeId> row;  ///< one GenPerm draw, pre-SoA-store

  explicit MatchWorker(std::size_t n) : sampler(n), row(n) {}
};

/// MaTCH as an engine problem (Fig. 5): GenPerm permutations drawn from
/// P, evaluated by the batch kernel, elite frequencies blended into P.
class MatchProblem {
 public:
  static constexpr EliteRule kElite = EliteRule::kThreshold;
  static constexpr StallRule kStall = StallRule::kUnchanged;

  MatchProblem(const sim::CostEvaluator& eval, const MatchParams& params,
               StochasticMatrix p0, std::span<const graph::NodeId> pins,
               const SolverContext& ctx)
      : eval_(&eval),
        params_(&params),
        pins_(pins),
        p_(std::move(p0)),
        batch_eval_(eval, params.eval_backend),
        workers_([n = p_.rows()] { return std::make_unique<MatchWorker>(n); }) {
    // The backend is resolved once (kAuto -> feature probe) and reported
    // once for metrics dashboards.
    if (ctx.metrics() != nullptr) {
      ctx.metrics()
          ->counter(std::string("solver.backend.") + batch_eval_.backend_name())
          .add();
    }
    opts_.pool = ctx.pool();
    if (!params.parallel) {
      // Force the serial path by raising the cutoff above any batch size.
      opts_.serial_cutoff = std::numeric_limits<std::size_t>::max();
    }
  }

  std::size_t sample_length() const { return p_.rows(); }
  const StochasticMatrix& matrix() const { return p_; }
  bool degenerate(double eps) const { return p_.is_degenerate(eps); }

  /// Step 3 (Fig. 5): N GenPerm draws.  Each sample's RNG is seeded from
  /// (iteration seed, lane) alone, so the batch does not depend on how
  /// the draw or cost pass is chunked across threads.
  void draw(sim::SampleBlock& block, rng::Rng& rng) {
    const std::uint64_t iter_seed = rng.bits();
    const bool use_alias = params_->sampler == SamplerBackend::kAlias;
    // Alias tables are rebuilt from P once per iteration (O(n²), the cost
    // of a single scan draw) and shared read-only across the batch.
    if (use_alias) alias_tables_.build(p_);
    parallel::parallel_for_chunked(
        0, block.size(),
        [&](std::size_t lo, std::size_t hi, std::size_t /*chunk*/) {
          auto lease = workers_.acquire();
          // The shuffled task order chains across draws; resetting it at
          // chunk start keeps the stream independent of which pooled
          // worker serves the chunk.
          lease->sampler.reset_order();
          for (std::size_t i = lo; i < hi; ++i) {
            rng::Rng local(sample_seed(iter_seed, i));
            if (use_alias) {
              lease->sampler.sample(p_, alias_tables_, local, lease->row,
                                    params_->random_task_order, pins_);
            } else {
              lease->sampler.sample(p_, local, lease->row,
                                    params_->random_task_order, pins_);
            }
            block.store_sample(i, lease->row);
          }
        },
        opts_);
  }

  /// The cancel fallback: one exact-scan GenPerm draw.
  void draw(std::span<graph::NodeId> row, rng::Rng& rng) {
    GenPermSampler sampler(row.size());
    rng::Rng local(rng.bits());
    sampler.sample(p_, local, row, params_->random_task_order, pins_);
  }

  void evaluate(const sim::SampleBlock& block, std::span<double> costs) {
    batch_eval_.evaluate(block, costs, opts_);
  }

  /// The scalar reference kernel: SIMD sums reassociate on fractional
  /// workloads, so the engine re-checks new bests here (a no-op on
  /// integer ones).
  double cost(std::span<const graph::NodeId> row) {
    return eval_->makespan(row, load_);
  }

  /// Step 6 (eq. 11) and smoothing (eq. 13).
  void update(const sim::SampleBlock& block, std::span<const std::size_t> elite,
              double zeta) {
    update_from_elite(p_, block, elite, zeta, counts_, opts_);
  }

 private:
  const sim::CostEvaluator* eval_;
  const MatchParams* params_;
  std::span<const graph::NodeId> pins_;  ///< empty -> no pins
  StochasticMatrix p_;
  sim::BatchEvaluator batch_eval_;
  // Per-worker state outlives the iteration loop, so samplers are built
  // at most once per worker thread per run.
  parallel::ScratchPool<MatchWorker> workers_;
  RowAliasTables alias_tables_;
  parallel::ForOptions opts_;
  std::vector<double> counts_;
  std::vector<double> load_;  ///< scalar recompute scratch
};

}  // namespace

void MatchOptimizer::set_initial_matrix(StochasticMatrix p0) {
  if (p0.rows() != n_ || p0.cols() != n_) {
    throw std::invalid_argument("set_initial_matrix: shape mismatch");
  }
  if (!p0.is_row_stochastic()) {
    throw std::invalid_argument("set_initial_matrix: not row-stochastic");
  }
  initial_ = std::move(p0);
}

void MatchOptimizer::set_pin(graph::NodeId task, graph::NodeId resource) {
  if (task >= n_ || resource >= n_) {
    throw std::invalid_argument("set_pin: index out of range");
  }
  if (pins_.empty()) pins_.assign(n_, GenPermSampler::kNoPin);
  for (std::size_t t = 0; t < n_; ++t) {
    if (t != task && pins_[t] == resource) {
      throw std::invalid_argument("set_pin: resource already pinned");
    }
  }
  pins_[task] = resource;
}

void MatchOptimizer::clear_pins() { pins_.clear(); }

MatchResult MatchOptimizer::run(const SolverContext& ctx) {
  MatchProblem problem(
      *eval_, params_,
      initial_.rows() == n_ ? initial_ : StochasticMatrix::uniform(n_, n_),
      pins_, ctx);
  CeLoop loop{params_};
  loop.solver = "match";
  loop.lanes = sample_size_;
  loop.rho = params_.rho;
  loop.zeta = params_.zeta;
  loop.dynamic_smoothing_q = params_.dynamic_smoothing_q;
  loop.literal_elite = params_.paper_literal_elite;
  loop.target_cost = params_.target_cost;
  return detail::run_mapping(problem, loop, trace_, ctx);
}

}  // namespace match::core
