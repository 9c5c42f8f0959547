#include "core/dag_ce.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/genperm.hpp"
#include "core/stochastic_matrix.hpp"
#include "parallel/parallel_for.hpp"

namespace match::core {

void DagCeParams::validate() const {
  validate_common("DagCeParams");
  if (max_iterations == 0) {
    throw std::invalid_argument("DagCeParams: max_iterations must be >= 1");
  }
  if (gamma_stall_window == 0) {
    throw std::invalid_argument("DagCeParams: gamma_stall_window must be >= 1");
  }
  if (degeneracy_eps <= 0.0) {
    throw std::invalid_argument("DagCeParams: degeneracy_eps <= 0");
  }
}

namespace {

/// DAG CE as an engine problem: a sample is a priority permutation
/// (`sample[k]` = the k-th most urgent task), drawn by GenPerm from
/// P[slot][task] lane by lane in sequence, and scored by the list
/// scheduler's batch path straight from the block.
class DagPriorityProblem {
 public:
  static constexpr EliteRule kElite = EliteRule::kQuantile;
  static constexpr StallRule kStall = StallRule::kNoGain;

  DagPriorityProblem(const sim::ScheduleEvaluator& eval,
                     const DagCeParams& params, const SolverContext& ctx)
      : eval_(&eval),
        n_(eval.num_tasks()),
        p_(StochasticMatrix::uniform(n_ > 0 ? n_ : 1, n_ > 0 ? n_ : 1)),
        sampler_(n_),
        backend_(params.sampler),
        random_task_order_(params.random_task_order) {
    if (n_ < 2) {
      throw std::invalid_argument("DagPriorityProblem: need >= 2 tasks");
    }
    opts_.pool = ctx.pool();
    if (!params.parallel) {
      // Lane results are thread-count-independent either way; serial mode
      // just never touches the pool.
      opts_.serial_cutoff = std::numeric_limits<std::size_t>::max();
    }
  }

  std::size_t sample_length() const { return n_; }
  bool degenerate(double eps) const { return p_.is_degenerate(eps); }
  std::size_t evaluations() const { return evaluations_; }

  /// GenPerm reads P row-by-row with a free-set constraint; here rows are
  /// priority slots and columns are tasks, so out[slot] = task.
  void draw(std::span<graph::NodeId> priority, rng::Rng& rng) {
    if (backend_ == SamplerBackend::kAlias) {
      if (tables_dirty_) {
        tables_.build(p_);
        tables_dirty_ = false;
      }
      sampler_.sample(p_, tables_, rng, priority, random_task_order_);
    } else {
      sampler_.sample(p_, rng, priority, random_task_order_);
    }
  }

  /// Scalar lanes with pooled scratch, fanned across the pool when
  /// `parallel` is set; each lane equals `schedule_priorities`.
  void evaluate(const sim::SampleBlock& block, std::span<double> out) {
    eval_->priority_makespans_batch(block, out, opts_);
    evaluations_ += block.size();
  }

  void update(const sim::SampleBlock& block, std::span<const std::size_t> elite,
              double zeta) {
    update_from_elite(p_, block, elite, zeta, counts_, opts_);
    tables_dirty_ = true;
  }

 private:
  const sim::ScheduleEvaluator* eval_;
  std::size_t n_;
  StochasticMatrix p_;  ///< P[slot][task], row-stochastic
  GenPermSampler sampler_;
  RowAliasTables tables_;
  SamplerBackend backend_;
  bool random_task_order_;
  bool tables_dirty_ = true;
  std::size_t evaluations_ = 0;
  parallel::ForOptions opts_;
  std::vector<double> counts_;
};

}  // namespace

DagCeResult solve_dag_ce(const sim::ScheduleEvaluator& eval,
                         const DagCeParams& params,
                         const match::SolverContext& ctx) {
  params.validate();
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = eval.num_tasks();

  DagPriorityProblem problem(eval, params, ctx);
  if (ctx.metrics() != nullptr) {
    // Book the kernel that served the run (same booking as matchalgo/ga);
    // priority mode is scalar whatever `eval_backend` asks for.
    ctx.metrics()
        ->counter(std::string("solver.backend.") + eval.backend_name())
        .add();
  }

  CeDriverParams driver;
  driver.rho = params.rho;
  driver.zeta = params.zeta;
  driver.sample_size = params.sample_size != 0
                           ? params.sample_size
                           : std::max<std::size_t>(64, 2 * n);
  driver.max_iterations = params.max_iterations;
  driver.gamma_stall_window = params.gamma_stall_window;
  driver.degeneracy_eps = params.degeneracy_eps;
  driver.target_cost = params.target_cost;

  CeResult ce = run_ce(problem, driver, ctx);

  DagCeResult result;
  static_cast<match::RunSummary&>(result) = ce;
  result.best_priority = std::move(ce.best);
  result.history = std::move(ce.history);
  result.evaluations = problem.evaluations();

  // Re-derive the best priority's full schedule (the list scheduler is
  // deterministic, so this reproduces the observed cost exactly).
  sim::ScheduleEvaluator::Scratch scratch;
  const double makespan =
      eval.schedule_priorities(result.best_priority, scratch, &result.schedule);
  result.best_cost = makespan;
  result.best_mapping = sim::Mapping(result.schedule.assignment);
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace match::core
