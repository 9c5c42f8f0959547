// Golden digests of every CE caller: MaTCH in each of its run modes, the
// general mapper, the island model, DAG CE on each DAG family, and the
// generic driver on max-cut.  A digest pins the best cost (exact), the
// iteration count, the stop reason, a hash of the full γ / iter-best
// history, a hash of the final sampling distribution, and the number of
// evaluations, so any change to a draw stream, the elite cut, the update
// or a stop rule shows here.
//
// Every run goes through an explicit thread pool — one worker and four —
// because a MaTCH answer still depends on how its batch is chunked; a
// golden on the process-global pool would only hold on one core count.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/ce_driver.hpp"
#include "core/dag_ce.hpp"
#include "core/general_match.hpp"
#include "core/island.hpp"
#include "core/matchalgo.hpp"
#include "core/maxcut.hpp"
#include "core/rematch.hpp"
#include "graph/generators.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/schedule_eval.hpp"
#include "workload/dag_suite.hpp"
#include "workload/paper_suite.hpp"

namespace match {
namespace {

/// FNV-1a over the bit patterns of a sequence of doubles.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
};

template <typename History>
std::uint64_t history_hash(const History& history) {
  Fnv f;
  for (const auto& s : history) {
    f.add(s.gamma);
    f.add(s.iter_best);
  }
  return f.h;
}

std::uint64_t values_hash(std::span<const double> values) {
  Fnv f;
  for (const double v : values) f.add(v);
  return f.h;
}

std::uint64_t matrix_hash(const core::StochasticMatrix& p) {
  Fnv f;
  for (std::size_t i = 0; i < p.rows(); ++i) {
    for (const double v : p.row(i)) f.add(v);
  }
  return f.h;
}

std::string digest(double best, std::size_t iterations, const char* stop,
                   std::uint64_t history, std::uint64_t dist,
                   std::size_t evaluations) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "best=%.17g iters=%zu stop=%s hist=%016llx dist=%016llx "
                "evals=%zu",
                best, iterations, stop,
                static_cast<unsigned long long>(history),
                static_cast<unsigned long long>(dist), evaluations);
  return buf;
}

std::string digest(const core::MatchResult& r, std::size_t batch) {
  return digest(r.best_cost, r.iterations, core::to_string(r.stop_reason),
                history_hash(r.history), matrix_hash(r.final_matrix),
                r.iterations * batch);
}

/// The generic driver's results carry flags, not a stop reason; rebuild
/// the reason from them in the driver's own check order.
const char* generic_stop(const RunSummary& r, std::size_t max_iterations,
                         double target) {
  if (r.cancelled) return "cancelled";
  if (target > 0.0 && r.best_cost <= target) return "target-reached";
  if (r.degenerate) return "degenerate";
  if (r.iterations == max_iterations) return "max-iterations";
  return "gamma-stable";
}

/// Paper-family instance (integer weights, so every evaluation backend
/// agrees bit for bit).  n = 12 gives MaTCH a 288-sample batch, above the
/// parallel loop's serial cutoff, so a 4-thread pool really splits it.
struct PaperFixture {
  workload::Instance inst;
  sim::Platform platform;
  sim::CostEvaluator eval;

  explicit PaperFixture(std::size_t n = 12, std::uint64_t seed = 3)
      : inst([&] {
          rng::Rng setup(seed);
          workload::PaperParams params;
          params.n = n;
          return workload::make_paper_instance(params, setup);
        }()),
        platform(inst.make_platform()),
        eval(inst.tig, platform) {}
};

/// Rectangular instance for the general mapper: 14 tasks onto 5 resources.
struct RectFixture {
  graph::Tig tig;
  sim::Platform platform;
  sim::CostEvaluator eval;

  RectFixture()
      : tig([] {
          rng::Rng rng(21);
          return graph::Tig(graph::make_clustered(14, 3, 0.7, 0.2, {1, 10},
                                                  {50, 100}, rng));
        }()),
        platform([] {
          rng::Rng rng(22);
          return sim::Platform(graph::ResourceGraph(
              graph::make_complete(5, {1, 5}, {10, 20}, rng)));
        }()),
        eval(tig, platform) {}
};

struct DagFixture {
  workload::DagInstance inst;
  sim::Platform platform;
  sim::ScheduleEvaluator eval;

  explicit DagFixture(workload::DagFamily family)
      : inst([&] {
          rng::Rng rng(17);
          workload::DagSuiteParams params;
          params.tasks = 24;
          return workload::make_dag_instance(family, params, rng);
        }()),
        platform(inst.make_platform()),
        eval(inst.dag, platform) {}

  DagFixture(const DagFixture&) = delete;
  DagFixture& operator=(const DagFixture&) = delete;
};

class CeGolden : public ::testing::TestWithParam<std::size_t> {
 protected:
  CeGolden() : pool_(GetParam()) {}

  /// Picks the pinned digest for this pool size.
  const char* expected(const char* one_thread, const char* four_threads) const {
    return GetParam() == 1 ? one_thread : four_threads;
  }
  /// A digest that holds on every pool size.
  static const char* expected(const char* any_pool) { return any_pool; }

  SolverContext ctx(rng::Rng& rng) const {
    return SolverContext(rng).with_pool(&pool_);
  }

  std::string match_digest(core::MatchOptimizer& opt, std::uint64_t seed,
                           StopFn stop = {}) {
    rng::Rng rng(seed);
    const auto r = opt.run(ctx(rng).with_stop(std::move(stop)));
    return digest(r, opt.effective_sample_size());
  }

  mutable parallel::ThreadPool pool_;
};

TEST_P(CeGolden, MatchDefault) {
  PaperFixture f;
  core::MatchOptimizer opt(f.eval);
  EXPECT_EQ(match_digest(opt, 5), expected(
          "best=4733 iters=28 stop=gamma-stable hist=2d830f5a123a9f86 dist=88bcabfbb12f0b6e evals=8064",
          "best=4770 iters=30 stop=gamma-stable hist=9c230941ef0372e4 dist=c975437d2990972f evals=8640"));
}

TEST_P(CeGolden, MatchScanSampler) {
  PaperFixture f;
  core::MatchParams params;
  params.sampler = core::SamplerBackend::kScan;
  core::MatchOptimizer opt(f.eval, params);
  EXPECT_EQ(match_digest(opt, 5), expected(
          "best=4668 iters=36 stop=gamma-stable hist=3e8d08930d897b9a dist=980f5d7e1db7e06d evals=10368",
          "best=4830 iters=25 stop=gamma-stable hist=29462d9398cb126c dist=6b9bdab8b9d1c597 evals=7200"));
}

TEST_P(CeGolden, MatchWithPins) {
  PaperFixture f;
  core::MatchOptimizer opt(f.eval);
  opt.set_pin(0, 3);
  opt.set_pin(7, 1);
  EXPECT_EQ(match_digest(opt, 6), expected(
          "best=4842 iters=22 stop=gamma-stable hist=398cfcfd5f687d01 dist=19dd02c4879b4322 evals=6336",
          "best=4870 iters=24 stop=gamma-stable hist=b45c03338da70f9e dist=9691cb23139e116e evals=6912"));
}

TEST_P(CeGolden, MatchRematchInitialMatrix) {
  PaperFixture f;
  core::RematchParams params;
  params.anchor = 0.5;
  rng::Rng rng(7);
  const auto r = core::rematch(f.eval, sim::Mapping::identity(12), params,
                               ctx(rng));
  EXPECT_EQ(digest(r, 2 * 12 * 12), expected(
          "best=4600 iters=21 stop=gamma-stable hist=8d8debc7bfadf1c9 dist=37081685134deff3 evals=6048",
          "best=4600 iters=29 stop=gamma-stable hist=298d2bf6a34c31b8 dist=a54693470b11db5c evals=8352"));
}

TEST_P(CeGolden, MatchPaperLiteralElite) {
  PaperFixture f;
  core::MatchParams params;
  params.paper_literal_elite = true;
  params.max_iterations = 12;
  core::MatchOptimizer opt(f.eval, params);
  EXPECT_EQ(match_digest(opt, 8), expected(
          "best=5208 iters=12 stop=max-iterations hist=f1e239c3078a6294 dist=91391da1b9347688 evals=3456",
          "best=5130 iters=12 stop=max-iterations hist=52b363161565698a dist=1150ee203799f749 evals=3456"));
}

TEST_P(CeGolden, MatchDynamicSmoothing) {
  PaperFixture f;
  core::MatchParams params;
  params.dynamic_smoothing_q = 3.0;
  params.zeta = 0.7;
  core::MatchOptimizer opt(f.eval, params);
  EXPECT_EQ(match_digest(opt, 9), expected(
          "best=4600 iters=25 stop=gamma-stable hist=cb83ba2d27b1de90 dist=6efd592c83d4e30d evals=7200",
          "best=4648 iters=28 stop=gamma-stable hist=a0fefa2fc4485960 dist=5a6b1c780d7a00f3 evals=8064"));
}

TEST_P(CeGolden, MatchTargetCost) {
  PaperFixture f;
  core::MatchParams params;
  params.target_cost = 4700.0;
  core::MatchOptimizer opt(f.eval, params);
  EXPECT_EQ(match_digest(opt, 10), expected(
          "best=4655 iters=16 stop=target-reached hist=fc635121fb18a1f2 dist=01da8f666583c2e8 evals=4608",
          "best=4655 iters=11 stop=target-reached hist=1299d89da9352c6e dist=1279deadf1076f0e evals=3168"));
}

TEST_P(CeGolden, MatchCancelledMidRun) {
  PaperFixture f;
  core::MatchOptimizer opt(f.eval);
  std::size_t polls = 0;
  EXPECT_EQ(match_digest(opt, 11, [&polls] { return ++polls > 4; }),
            expected(
          "best=5037 iters=4 stop=cancelled hist=025c63dbd371f399 dist=27781654f22946eb evals=1152",
          "best=4935 iters=4 stop=cancelled hist=f51a52e95769dd7d dist=8b91b2b7c9985faf evals=1152"));
}

TEST_P(CeGolden, GeneralMapper) {
  RectFixture f;
  core::GeneralMatchOptimizer opt(f.eval);
  rng::Rng rng(12);
  const auto r = opt.run(ctx(rng));
  EXPECT_EQ(digest(r, opt.effective_sample_size()), expected(
          "best=9214 iters=32 stop=gamma-stable hist=30071c79df5e7fdc dist=b11ae90852d8ca1c evals=4480"));
}

TEST_P(CeGolden, GeneralMapperScalarBackend) {
  RectFixture f;
  core::GeneralMatchParams params;
  params.eval_backend = sim::EvalBackend::kScalar;
  params.zeta = 0.6;
  core::GeneralMatchOptimizer opt(f.eval, params);
  rng::Rng rng(13);
  const auto r = opt.run(ctx(rng));
  EXPECT_EQ(digest(r, opt.effective_sample_size()), expected(
          "best=9874 iters=19 stop=degenerate hist=87fc3fb8c77194be dist=d3cfc7742f45949c evals=2660"));
}

TEST_P(CeGolden, IslandModel) {
  PaperFixture f(10);
  core::IslandMatchOptimizer opt(f.eval);
  rng::Rng rng(14);
  const auto r = opt.run(ctx(rng));
  EXPECT_EQ(digest(r.best_cost, r.epochs, r.cancelled ? "cancelled" : "stall",
                   values_hash(r.history), 0,
                   r.epochs * opt.per_island_samples() * 4 * 5),
            expected(
          "best=3991 iters=8 stop=stall hist=169c296b3eebd519 dist=0000000000000000 evals=8000"));
}

std::string dag_digest(workload::DagFamily family, const SolverContext& ctx) {
  DagFixture f(family);
  core::DagCeParams params;
  params.max_iterations = 60;
  const auto r = core::solve_dag_ce(f.eval, params, ctx);
  return digest(r.best_cost, r.iterations,
                generic_stop(r, params.max_iterations, params.target_cost),
                history_hash(r.history), 0, r.evaluations);
}

TEST_P(CeGolden, DagCeLayered) {
  rng::Rng rng(15);
  EXPECT_EQ(dag_digest(workload::DagFamily::kLayered, ctx(rng)),
            expected(
          "best=1478 iters=13 stop=gamma-stable hist=5329b4ec254f2aba dist=0000000000000000 evals=832"));
}

TEST_P(CeGolden, DagCeForkJoin) {
  rng::Rng rng(15);
  EXPECT_EQ(dag_digest(workload::DagFamily::kForkJoin, ctx(rng)),
            expected(
          "best=127 iters=11 stop=gamma-stable hist=db7ed365e0845145 dist=0000000000000000 evals=704"));
}

TEST_P(CeGolden, DagCeSeriesParallel) {
  rng::Rng rng(15);
  EXPECT_EQ(dag_digest(workload::DagFamily::kSeriesParallel, ctx(rng)),
            expected(
          "best=142 iters=11 stop=gamma-stable hist=7b2f7df1967d8b85 dist=0000000000000000 evals=704"));
}

TEST_P(CeGolden, MaxCutGenericDriver) {
  rng::Rng graph_rng(16);
  const graph::Graph g = graph::make_gnp(16, 0.4, {1, 1}, {1, 9}, graph_rng);
  core::MaxCutProblem problem(g);
  core::CeDriverParams params;
  params.sample_size = 200;
  rng::Rng rng(17);
  const auto r = core::run_ce(problem, params, ctx(rng));
  EXPECT_EQ(digest(r.best_cost, r.iterations,
                   generic_stop(r, params.max_iterations, params.target_cost),
                   history_hash(r.history), values_hash(problem.probabilities()),
                   r.iterations * params.sample_size),
            expected(
          "best=-168 iters=14 stop=degenerate hist=4264f4bc5a9a5258 dist=700441c73592ae1a evals=2800"));
}

INSTANTIATE_TEST_SUITE_P(Pools, CeGolden, ::testing::Values(1, 4),
                         [](const auto& pool_size) {
                           return pool_size.param == 1 ? std::string("OneThread")
                                                  : std::string("FourThreads");
                         });

}  // namespace
}  // namespace match
