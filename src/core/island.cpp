#include "core/island.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <stdexcept>

#include "core/ce_driver.hpp"
#include "core/genperm.hpp"
#include "core/stochastic_matrix.hpp"
#include "obs/scoped_timer.hpp"
#include "parallel/parallel_for.hpp"
#include "rng/splitmix64.hpp"

namespace match::core {

void IslandParams::validate() const {
  if (islands == 0) throw std::invalid_argument("IslandParams: islands >= 1");
  if (epoch_iterations == 0) {
    throw std::invalid_argument("IslandParams: epoch_iterations >= 1");
  }
  if (migration < 0.0 || migration > 1.0) {
    throw std::invalid_argument("IslandParams: migration in [0, 1]");
  }
  if (max_epochs == 0 || stall_epochs == 0) {
    throw std::invalid_argument("IslandParams: zero epoch budget");
  }
  if (!(rho > 0.0 && rho < 1.0)) {
    throw std::invalid_argument("IslandParams: rho in (0, 1)");
  }
  if (!(zeta > 0.0 && zeta <= 1.0)) {
    throw std::invalid_argument("IslandParams: zeta in (0, 1]");
  }
}

IslandMatchOptimizer::IslandMatchOptimizer(const sim::CostEvaluator& eval,
                                           IslandParams params)
    : eval_(&eval), params_(params), n_(eval.num_tasks()) {
  params_.validate();
  if (eval.num_resources() != n_) {
    throw std::invalid_argument("IslandMatchOptimizer: needs |V_t| == |V_r|");
  }
  sample_size_ = params_.sample_size != 0
                     ? params_.sample_size
                     : std::max<std::size_t>(8, 2 * n_ * n_ / params_.islands);
}

namespace {

/// One island's CE problem: sequential exact-scan GenPerm draws from the
/// island's own P, scored by the scalar batch kernel (bit-identical to
/// `CostEvaluator::makespan`), with MaTCH's elite update.
class IslandProblem {
 public:
  static constexpr EliteRule kElite = EliteRule::kThreshold;
  static constexpr StallRule kStall = StallRule::kUnchanged;

  IslandProblem(const sim::CostEvaluator& eval, std::uint64_t island_seed)
      : p(StochasticMatrix::uniform(eval.num_tasks(), eval.num_tasks())),
        seed(island_seed),
        sampler_(eval.num_tasks()),
        batch_eval_(eval, sim::EvalBackend::kScalar) {
    // Islands already run concurrently; each one's loops stay serial.
    opts_.serial_cutoff = std::numeric_limits<std::size_t>::max();
  }

  std::size_t sample_length() const { return p.rows(); }
  bool degenerate(double eps) const { return p.is_degenerate(eps); }

  /// Starts an epoch: the task order chains across the epoch's draws
  /// only.
  void reset_order() { sampler_.reset_order(); }

  void draw(std::span<graph::NodeId> row, rng::Rng& rng) {
    sampler_.sample(p, rng, row);
  }

  void evaluate(const sim::SampleBlock& block, std::span<double> costs) {
    batch_eval_.evaluate(block, costs, opts_);
  }

  void update(const sim::SampleBlock& block, std::span<const std::size_t> elite,
              double zeta) {
    update_from_elite(p, block, elite, zeta, counts_, opts_);
  }

  StochasticMatrix p;
  std::uint64_t seed;

 private:
  GenPermSampler sampler_;
  sim::BatchEvaluator batch_eval_;
  parallel::ForOptions opts_;
  std::vector<double> counts_;
};

/// One island: its problem and the engine stepping it (the engine keeps a
/// pointer to the problem, so islands live in a deque and never move).
struct Island {
  IslandProblem problem;
  CeEngine<IslandProblem> engine;

  Island(const sim::CostEvaluator& eval, std::uint64_t seed, const CeLoop& loop)
      : problem(eval, seed), engine(problem, loop, SolverContext()) {}
  Island(const Island&) = delete;
  Island& operator=(const Island&) = delete;
};

}  // namespace

IslandResult IslandMatchOptimizer::run(const SolverContext& ctx) {
  const auto t_start = std::chrono::steady_clock::now();
  rng::Rng& rng = ctx.rng();
  obs::PhaseProbe probe(ctx.sink(), ctx.metrics(), "island", ctx.run_id());
  obs::Counter* epoch_counter =
      ctx.metrics() != nullptr ? &ctx.metrics()->counter("island.epochs")
                               : nullptr;
  ctx.emit(obs::Event::run_start(ctx.run_id(), "island"));
  const std::size_t k = params_.islands;

  CeLoop loop;
  loop.solver = "island";
  loop.lanes = sample_size_;
  loop.rho = params_.rho;
  loop.zeta = params_.zeta;
  std::deque<Island> islands;
  for (std::size_t i = 0; i < k; ++i) islands.emplace_back(*eval_, rng.bits(), loop);

  IslandResult result;
  result.best_cost = std::numeric_limits<double>::infinity();

  parallel::ForOptions for_opts;
  for_opts.pool = ctx.pool();
  for_opts.grain = 1;
  if (!params_.parallel) {
    for_opts.serial_cutoff = std::numeric_limits<std::size_t>::max();
  } else {
    for_opts.serial_cutoff = 0;
  }

  std::size_t stall = 0;
  for (std::size_t epoch = 0; epoch < params_.max_epochs; ++epoch) {
    if (ctx.stop_requested()) {
      result.cancelled = true;
      break;
    }
    probe.start_iteration(epoch);
    // --- Each island evolves privately for one epoch (parallel). -------
    parallel::parallel_for(
        0, k,
        [&](std::size_t idx) {
          Island& island = islands[idx];
          rng::SplitMix64 mixer(island.problem.seed ^
                                (epoch * 0x9e3779b97f4a7c15ULL));
          rng::Rng local(mixer.next());
          island.problem.reset_order();
          for (std::size_t it = 0; it < params_.epoch_iterations; ++it) {
            island.engine.step(it, local);
          }
        },
        for_opts);
    probe.split("evolve");

    // --- Migration: everyone drifts toward the best island. -------------
    std::size_t best_island = 0;
    for (std::size_t i = 1; i < k; ++i) {
      if (islands[i].engine.best_cost() <
          islands[best_island].engine.best_cost()) {
        best_island = i;
      }
    }
    if (params_.migration > 0.0) {
      for (std::size_t i = 0; i < k; ++i) {
        if (i == best_island) continue;
        islands[i].problem.p.blend_from(islands[best_island].problem.p,
                                        params_.migration);
      }
    }

    const CeEngine<IslandProblem>& best_engine = islands[best_island].engine;
    const double epoch_best = best_engine.best_cost();
    if (epoch_best < result.best_cost - 1e-12) {
      result.best_cost = epoch_best;
      const auto best = best_engine.best();
      result.best_mapping =
          sim::Mapping(std::vector<graph::NodeId>(best.begin(), best.end()));
      stall = 0;
    } else {
      ++stall;
    }
    probe.split("migrate");
    result.history.push_back(result.best_cost);
    result.epochs = epoch + 1;
    // One event per epoch: the epoch's best island stands in for the
    // batch (γ = iter_best = its best cost), elite_count = islands.
    IterationStats stats;
    stats.iteration = epoch;
    stats.gamma = epoch_best;
    stats.iter_best = epoch_best;
    stats.best_so_far = result.best_cost;
    stats.elite_count = k;
    report_iteration(ctx, "island", stats, epoch_counter);
    if (stall >= params_.stall_epochs) break;
  }

  if (result.epochs == 0) {
    // Cancelled before the first epoch: one draw from island 0.
    rng::Rng local(rng.bits());
    CeEngine<IslandProblem>& first = islands[0].engine;
    first.fallback(local, ctx);
    result.best_cost = first.best_cost();
    const auto best = first.best();
    result.best_mapping =
        sim::Mapping(std::vector<graph::NodeId>(best.begin(), best.end()));
  }

  result.iterations = result.epochs;
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();
  ctx.emit(obs::Event::run_end(ctx.run_id(), "island", result.epochs,
                               result.best_cost, result.elapsed_seconds));
  return result;
}

}  // namespace match::core
