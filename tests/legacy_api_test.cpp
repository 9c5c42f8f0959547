// Every solver takes one `SolverContext`; the old `(rng)` / `(rng, stop)`
// entry points are gone.  The static_asserts pin that each retired call
// no longer compiles, and the tests run the context signature end to end.

#include <gtest/gtest.h>

#include <cstddef>

#include "baselines/ga.hpp"
#include "baselines/local_search.hpp"
#include "core/ce_driver.hpp"
#include "core/general_match.hpp"
#include "core/island.hpp"
#include "core/matchalgo.hpp"
#include "core/maxcut.hpp"
#include "core/rematch.hpp"
#include "core/solver_context.hpp"
#include "rng/rng.hpp"
#include "service/solver_registry.hpp"
#include "sim/evaluator.hpp"
#include "sim/platform.hpp"
#include "workload/paper_suite.hpp"

namespace match {
namespace {

struct Fixture {
  workload::Instance inst;
  sim::Platform platform;
  sim::CostEvaluator eval;

  explicit Fixture(std::size_t n, std::uint64_t seed)
      : inst(make(n, seed)),
        platform(inst.make_platform()),
        eval(inst.tig, platform) {}

  static workload::Instance make(std::size_t n, std::uint64_t seed) {
    rng::Rng rng(seed);
    workload::PaperParams params;
    params.n = n;
    return workload::make_paper_instance(params, rng);
  }
};

// --- The retired pre-SolverContext signatures must NOT compile. --------
// Each probe is a requires-expression against the real types (a concept,
// since a requires-expression with invalid operands is a hard error
// outside a template); a revived forwarder flips one static_assert.

template <typename Opt>
concept HasRunRng = requires(Opt opt, rng::Rng rng) { opt.run(rng); };
template <typename Opt>
concept HasSetShouldStop =
    requires(Opt opt, match::StopFn stop) { opt.set_should_stop(stop); };
template <typename P>
concept HasRunCeRng = requires(P problem, core::CeDriverParams params,
                               rng::Rng rng) {
  core::run_ce(problem, params, rng);
} || requires(P problem, core::CeDriverParams params, rng::Rng rng,
              match::StopFn stop) { core::run_ce(problem, params, rng, stop); };
template <typename E>
concept HasRandomSearchRng = requires(const E& eval, rng::Rng rng) {
  baselines::random_search(eval, std::size_t{10}, rng);
};
template <typename E>
concept HasHillClimbRng = requires(const E& eval, rng::Rng rng) {
  baselines::hill_climb(eval, std::size_t{10}, rng);
};
template <typename E>
concept HasSimulatedAnnealingRng =
    requires(const E& eval, baselines::SaParams params, rng::Rng rng) {
      baselines::simulated_annealing(eval, params, rng);
    };
template <typename E>
concept HasRematchRng = requires(const E& eval, const sim::Mapping& m,
                                 core::RematchParams params, rng::Rng rng) {
  core::rematch(eval, m, params, rng);
};
template <typename S>
concept HasSolveStopFn =
    requires(const S& solver, const workload::Instance& inst,
             const service::SolveOptions& options, const match::StopFn& stop) {
      solver.solve(inst, options, stop);
    };

using Eval = sim::CostEvaluator;
static_assert(!HasRunRng<core::MatchOptimizer> &&
              !HasRunRng<core::GeneralMatchOptimizer> &&
              !HasRunRng<core::IslandMatchOptimizer> &&
              !HasRunRng<baselines::GaOptimizer>);
static_assert(!HasSetShouldStop<core::MatchOptimizer> &&
              !HasSetShouldStop<baselines::GaOptimizer>);
static_assert(!HasRunCeRng<core::MaxCutProblem>);
static_assert(!HasRandomSearchRng<Eval> && !HasHillClimbRng<Eval> &&
              !HasSimulatedAnnealingRng<Eval> && !HasRematchRng<Eval>);
static_assert(!HasSolveStopFn<service::Solver>);

// --- And the one-true signature still works end to end. -----------------

TEST(LegacyApi, SolverContextIsTheOnlyEntryPoint) {
  Fixture f(10, 1);
  core::MatchParams params;
  params.max_iterations = 15;

  rng::Rng rng(5);
  const auto r = core::MatchOptimizer(f.eval, params).run(SolverContext(rng));
  EXPECT_TRUE(r.best_mapping.is_permutation());
  EXPECT_EQ(r.best_cost, f.eval.makespan(r.best_mapping));

  // Determinism: the same seed through a fresh context reproduces the run.
  rng::Rng rng2(5);
  const auto r2 = core::MatchOptimizer(f.eval, params).run(SolverContext(rng2));
  EXPECT_EQ(r.best_mapping, r2.best_mapping);
  EXPECT_EQ(r.best_cost, r2.best_cost);
  EXPECT_EQ(r.iterations, r2.iterations);
}

TEST(LegacyApi, ContextStopHookCancels) {
  Fixture f(10, 1);
  core::MatchOptimizer opt(f.eval);
  rng::Rng rng(2);
  const auto r = opt.run(SolverContext(rng, [] { return true; }));
  EXPECT_TRUE(r.cancelled);
  EXPECT_TRUE(r.best_mapping.is_permutation());
}

TEST(LegacyApi, ServiceSolveTakesContext) {
  const auto inst = Fixture::make(8, 8);
  service::SolverRegistry registry;
  service::SolveOptions options;
  options.max_iterations = 10;

  const auto outcome = registry.get(service::SolverKind::kMatch)
                           .solve(inst, options, SolverContext());
  EXPECT_TRUE(outcome.mapping.is_permutation());

  SolverContext cancelled_ctx;
  cancelled_ctx.with_stop([] { return true; });
  const auto cancelled = registry.get(service::SolverKind::kMatch)
                             .solve(inst, options, cancelled_ctx);
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_TRUE(cancelled.mapping.is_permutation());
}

}  // namespace
}  // namespace match
