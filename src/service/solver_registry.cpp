#include "service/solver_registry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "baselines/ga.hpp"
#include "baselines/heft.hpp"
#include "baselines/list_heuristics.hpp"
#include "baselines/local_search.hpp"
#include "core/dag_ce.hpp"
#include "core/matchalgo.hpp"
#include "rng/rng.hpp"
#include "sim/evaluator.hpp"
#include "sim/platform.hpp"
#include "sim/schedule_eval.hpp"

namespace match::service {
namespace {

/// MaTCH adapter: library defaults overlaid with the registry-wide
/// common knobs, with the request's iteration budget, quality target and
/// deadline hook threaded through.
class MatchSolver final : public Solver {
 public:
  explicit MatchSolver(const core::CeCommonParams& defaults)
      : defaults_(defaults) {}

  const char* name() const override { return "match"; }

  SolveOutcome solve(const workload::AnyInstance& any,
                     const SolveOptions& options,
                     const match::SolverContext& ctx) const override {
    const workload::Instance& instance = any.tig();
    const sim::Platform platform = instance.make_platform();
    const sim::CostEvaluator eval(instance.tig, platform);

    core::MatchParams params;
    static_cast<core::CeCommonParams&>(params) = defaults_;
    if (options.max_iterations != 0) {
      params.max_iterations = options.max_iterations;
    }
    params.target_cost = options.target_cost;

    core::MatchOptimizer optimizer(eval, params);

    rng::Rng rng(options.seed);
    match::SolverContext run_ctx = ctx;
    run_ctx.with_rng(rng);
    const core::MatchResult r = optimizer.run(run_ctx);

    SolveOutcome out;
    static_cast<match::RunSummary&>(out) = r;
    out.mapping = r.best_mapping;
    return out;
  }

 private:
  core::CeCommonParams defaults_;
};

/// FastMap-GA adapter.  The paper's tuned configuration (population 500 ×
/// 1000 generations) is an offline budget; a service answering a request
/// stream needs something bounded, so the adapter scales the population
/// with the instance (≥ 32, 4n) and defaults to 150 generations unless
/// the request overrides the budget.
class GaSolver final : public Solver {
 public:
  explicit GaSolver(const core::CeCommonParams& defaults)
      : defaults_(defaults) {}

  const char* name() const override { return "fastmap-ga"; }

  SolveOutcome solve(const workload::AnyInstance& any,
                     const SolveOptions& options,
                     const match::SolverContext& ctx) const override {
    const workload::Instance& instance = any.tig();
    const sim::Platform platform = instance.make_platform();
    const sim::CostEvaluator eval(instance.tig, platform);

    baselines::GaParams params;
    static_cast<core::CeCommonParams&>(params) = defaults_;
    params.population = std::max<std::size_t>(32, 4 * instance.size());
    params.generations = options.max_iterations != 0 ? options.max_iterations
                                                     : 150;
    params.target_cost = options.target_cost;

    baselines::GaOptimizer optimizer(eval, params);

    rng::Rng rng(options.seed);
    match::SolverContext run_ctx = ctx;
    run_ctx.with_rng(rng);
    const baselines::GaResult r = optimizer.run(run_ctx);

    SolveOutcome out;
    static_cast<match::RunSummary&>(out) = r;
    out.mapping = r.best_mapping;
    return out;
  }

 private:
  core::CeCommonParams defaults_;
};

/// Restarted hill climbing, adapted to cooperative cancellation by
/// slicing the evaluation budget: the stop hook cuts the current slice
/// short (hill_climb polls it per restart and per descent sweep), and
/// the best mapping across slices is kept.  Each slice draws its RNG
/// from the request's master stream, so the full (uncancelled) run is a
/// deterministic function of the seed.
class LocalSearchSolver final : public Solver {
 public:
  const char* name() const override { return "local-search"; }

  SolveOutcome solve(const workload::AnyInstance& any,
                     const SolveOptions& options,
                     const match::SolverContext& ctx) const override {
    const workload::Instance& instance = any.tig();
    const sim::Platform platform = instance.make_platform();
    const sim::CostEvaluator eval(instance.tig, platform);
    const std::size_t n = instance.size();

    const std::size_t budget =
        options.max_iterations != 0 ? options.max_iterations : 20000;
    const std::size_t slice = std::max<std::size_t>(n * n, 1000);

    rng::Rng master(options.seed);
    SolveOutcome out;
    out.best_cost = std::numeric_limits<double>::infinity();

    std::size_t spent = 0;
    while (spent < budget) {
      // The first slice always starts: on immediate cancellation
      // hill_climb itself evaluates one fallback draw, keeping the
      // best-so-far contract (and emitting the fallback_draw event).
      rng::Rng slice_rng(master.bits());
      match::SolverContext slice_ctx = ctx;
      slice_ctx.with_rng(slice_rng);
      const baselines::SearchResult r = baselines::hill_climb(
          eval, std::min(slice, budget - spent), slice_ctx);
      if (r.best_cost < out.best_cost) {
        out.best_cost = r.best_cost;
        out.mapping = r.best_mapping;
      }
      spent += r.evaluations;
      if (r.cancelled) {
        out.cancelled = true;
        break;
      }
      if (options.target_cost > 0.0 && out.best_cost <= options.target_cost) {
        break;
      }
    }
    out.iterations = spent;
    return out;
  }
};

/// List-heuristic adapter (Min-min / Max-min / Sufferage): deterministic
/// constructive mappings, fast enough that the deadline hook is never
/// consulted.
class ListSolver final : public Solver {
 public:
  explicit ListSolver(baselines::ListRule rule) : rule_(rule) {}

  const char* name() const override { return baselines::to_string(rule_); }

  SolveOutcome solve(const workload::AnyInstance& any,
                     const SolveOptions& /*options*/,
                     const match::SolverContext& /*ctx*/) const override {
    const workload::Instance& instance = any.tig();
    const sim::Platform platform = instance.make_platform();
    const sim::CostEvaluator eval(instance.tig, platform);
    const baselines::SearchResult r = baselines::list_schedule(eval, rule_);

    SolveOutcome out;
    static_cast<match::RunSummary&>(out) = r;
    out.iterations = r.evaluations;
    out.mapping = r.best_mapping;
    return out;
  }

 private:
  baselines::ListRule rule_;
};

/// Deterministic DAG list schedulers (HEFT, topological order): no RNG,
/// no iteration loop — the stop hook is never consulted, mirroring the
/// TIG list heuristics.
class DagListSolver final : public Solver {
 public:
  enum class Rule { kHeft, kTopo };

  explicit DagListSolver(Rule rule) : rule_(rule) {}

  const char* name() const override {
    return rule_ == Rule::kHeft ? "heft" : "topo-list";
  }

  bool supports(workload::WorkloadKind kind) const override {
    return kind == workload::WorkloadKind::kDag;
  }

  SolveOutcome solve(const workload::AnyInstance& any,
                     const SolveOptions& /*options*/,
                     const match::SolverContext& /*ctx*/) const override {
    const workload::DagInstance& instance = any.dag();
    const sim::Platform platform = instance.make_platform();
    const sim::ScheduleEvaluator eval(instance.dag, platform);
    const baselines::DagScheduleResult r =
        rule_ == Rule::kHeft ? baselines::heft_schedule(eval)
                             : baselines::topo_list_schedule(eval);

    SolveOutcome out;
    static_cast<match::RunSummary&>(out) = r;
    out.mapping = r.best_mapping;
    return out;
  }

 private:
  Rule rule_;
};

/// CE-over-priorities adapter for DAG workloads: the registry-wide
/// common knobs seed the CE parameters, the request supplies budget,
/// target and seed, and the context's stop hook gives it the same
/// cancellation semantics as every other iterative solver.
class DagCeSolver final : public Solver {
 public:
  explicit DagCeSolver(const core::CeCommonParams& defaults)
      : defaults_(defaults) {}

  const char* name() const override { return "dag-ce"; }

  bool supports(workload::WorkloadKind kind) const override {
    return kind == workload::WorkloadKind::kDag;
  }

  SolveOutcome solve(const workload::AnyInstance& any,
                     const SolveOptions& options,
                     const match::SolverContext& ctx) const override {
    const workload::DagInstance& instance = any.dag();
    const sim::Platform platform = instance.make_platform();
    const sim::ScheduleEvaluator eval(instance.dag, platform);

    core::DagCeParams params;
    static_cast<core::CeCommonParams&>(params) = defaults_;
    if (options.max_iterations != 0) {
      params.max_iterations = options.max_iterations;
    }
    params.target_cost = options.target_cost;

    rng::Rng rng(options.seed);
    match::SolverContext run_ctx = ctx;
    run_ctx.with_rng(rng);
    const core::DagCeResult r = core::solve_dag_ce(eval, params, run_ctx);

    SolveOutcome out;
    static_cast<match::RunSummary&>(out) = r;
    out.mapping = r.best_mapping;
    return out;
  }

 private:
  core::CeCommonParams defaults_;
};

}  // namespace

SolverRegistry::SolverRegistry(core::CeCommonParams defaults) {
  register_solver(SolverKind::kMatch, std::make_unique<MatchSolver>(defaults));
  register_solver(SolverKind::kGa, std::make_unique<GaSolver>(defaults));
  register_solver(SolverKind::kLocalSearch,
                  std::make_unique<LocalSearchSolver>());
  register_solver(SolverKind::kMinMin,
                  std::make_unique<ListSolver>(baselines::ListRule::kMinMin));
  register_solver(SolverKind::kMaxMin,
                  std::make_unique<ListSolver>(baselines::ListRule::kMaxMin));
  register_solver(
      SolverKind::kSufferage,
      std::make_unique<ListSolver>(baselines::ListRule::kSufferage));
  register_solver(SolverKind::kHeft,
                  std::make_unique<DagListSolver>(DagListSolver::Rule::kHeft));
  register_solver(SolverKind::kTopoList,
                  std::make_unique<DagListSolver>(DagListSolver::Rule::kTopo));
  register_solver(SolverKind::kDagCe, std::make_unique<DagCeSolver>(defaults));
}

SolverRegistry::SolverRegistry(sim::EvalBackend eval_backend)
    : SolverRegistry([eval_backend] {
        core::CeCommonParams defaults;
        defaults.eval_backend = eval_backend;
        return defaults;
      }()) {}

void SolverRegistry::register_solver(SolverKind kind,
                                     std::unique_ptr<Solver> solver) {
  if (!solver) {
    throw std::invalid_argument("SolverRegistry: null solver");
  }
  const auto [it, inserted] = solvers_.emplace(kind, std::move(solver));
  if (!inserted) {
    throw std::invalid_argument(
        std::string("SolverRegistry: solver already registered for kind '") +
        to_string(kind) + "' (use replace_solver to swap it)");
  }
}

void SolverRegistry::replace_solver(SolverKind kind,
                                    std::unique_ptr<Solver> solver) {
  if (!solver) {
    throw std::invalid_argument("SolverRegistry: null solver");
  }
  solvers_[kind] = std::move(solver);
}

const Solver& SolverRegistry::get(SolverKind kind) const {
  const auto it = solvers_.find(kind);
  if (it == solvers_.end()) {
    throw std::out_of_range("SolverRegistry: no solver registered for kind");
  }
  return *it->second;
}

bool SolverRegistry::contains(SolverKind kind) const {
  return solvers_.find(kind) != solvers_.end();
}

std::vector<SolverKind> SolverRegistry::kinds() const {
  std::vector<SolverKind> out;
  out.reserve(solvers_.size());
  for (const auto& [kind, solver] : solvers_) out.push_back(kind);
  return out;
}

}  // namespace match::service
