// Tests of the mapping service (src/service/): instance fingerprinting,
// the LRU solution cache, the deadline best-so-far contract, and the
// service's concurrency invariants — most importantly that responses are
// byte-identical regardless of worker count.

#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/matchalgo.hpp"
#include "service/deadline.hpp"
#include "service/instance_cache.hpp"
#include "service/request.hpp"
#include "service/service.hpp"
#include "service/solver_registry.hpp"
#include "sim/batch_eval.hpp"
#include "sim/evaluator.hpp"
#include "workload/any_instance.hpp"
#include "workload/dag_suite.hpp"
#include "workload/paper_suite.hpp"

namespace match::service {
namespace {

std::shared_ptr<const workload::AnyInstance> make_instance(std::size_t n,
                                                           std::uint64_t seed) {
  rng::Rng rng(seed);
  workload::PaperParams params;
  params.n = n;
  return std::make_shared<workload::AnyInstance>(
      workload::make_paper_instance(params, rng));
}

std::shared_ptr<const workload::AnyInstance> make_dag_instance(
    std::size_t n, std::uint64_t seed) {
  rng::Rng rng(seed);
  workload::DagSuiteParams params;
  params.tasks = n;
  return std::make_shared<workload::AnyInstance>(workload::make_dag_instance(
      workload::DagFamily::kLayered, params, rng));
}

// ---- Fingerprinting ----------------------------------------------------

TEST(Fingerprint, StableAcrossRegeneration) {
  // The same generator seed produces the same instance, so the canonical
  // fingerprint must match even though the objects are distinct.
  const auto a = make_instance(10, 1);
  const auto b = make_instance(10, 1);
  EXPECT_EQ(fingerprint_instance(*a), fingerprint_instance(*b));
}

TEST(Fingerprint, DiscriminatesDistinctInstances) {
  const auto a = make_instance(10, 1);
  const auto b = make_instance(10, 2);   // same size, different data
  const auto c = make_instance(12, 1);   // different size
  EXPECT_NE(fingerprint_instance(*a), fingerprint_instance(*b));
  EXPECT_NE(fingerprint_instance(*a), fingerprint_instance(*c));
}

TEST(Fingerprint, DagStableAcrossRegenerationAndDistinctFromTig) {
  const auto a = make_dag_instance(12, 1);
  const auto b = make_dag_instance(12, 1);
  const auto c = make_dag_instance(12, 2);
  EXPECT_EQ(fingerprint_instance(*a), fingerprint_instance(*b));
  EXPECT_NE(fingerprint_instance(*a), fingerprint_instance(*c));
  // Kind is mixed into the digest first, so a TIG and a DAG instance can
  // never collide by construction.
  const auto tig = make_instance(12, 1);
  EXPECT_NE(fingerprint_instance(*a), fingerprint_instance(*tig));
}

TEST(CacheKey, MixesSolverAndResultAffectingOptions) {
  const std::uint64_t fp = 0xfeedbeefULL;
  SolveOptions base;
  const std::uint64_t key = cache_key(fp, SolverKind::kMatch, base);

  EXPECT_NE(key, cache_key(fp, SolverKind::kGa, base));
  EXPECT_NE(key, cache_key(fp ^ 1, SolverKind::kMatch, base));

  SolveOptions other = base;
  other.seed = 99;
  EXPECT_NE(key, cache_key(fp, SolverKind::kMatch, other));
  other = base;
  other.max_iterations = 7;
  EXPECT_NE(key, cache_key(fp, SolverKind::kMatch, other));
  other = base;
  other.target_cost = 3.5;
  EXPECT_NE(key, cache_key(fp, SolverKind::kMatch, other));
}

TEST(CacheKey, DeadlineDoesNotParticipate) {
  // Deadline-truncated results are never cached, so two requests that
  // differ only in deadline must share one cache entry.
  const std::uint64_t fp = 0x1234ULL;
  SolveOptions a, b;
  a.deadline_seconds = 0.0;
  b.deadline_seconds = 2.5;
  EXPECT_EQ(cache_key(fp, SolverKind::kMatch, a),
            cache_key(fp, SolverKind::kMatch, b));
}

// ---- SolutionCache -----------------------------------------------------

CachedSolution solution_of(std::vector<graph::NodeId> assign, double cost) {
  CachedSolution s;
  s.mapping = sim::Mapping(std::move(assign));
  s.cost = cost;
  s.iterations = 1;
  return s;
}

TEST(SolutionCache, HitMissAndEvictionCounters) {
  SolutionCache cache(2);
  EXPECT_FALSE(cache.lookup(1).has_value());  // miss on empty

  cache.insert(1, solution_of({0, 1}, 1.0));
  cache.insert(2, solution_of({1, 0}, 2.0));
  EXPECT_TRUE(cache.lookup(1).has_value());

  // Key 1 was just refreshed, so inserting key 3 must evict key 2 (LRU).
  cache.insert(3, solution_of({0, 1}, 3.0));
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(3).has_value());

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.capacity, 2u);
}

TEST(SolutionCache, ReturnsByteIdenticalAndNeverAliases) {
  SolutionCache cache(8);
  const CachedSolution a = solution_of({2, 0, 1}, 4.5);
  const CachedSolution b = solution_of({1, 2, 0}, 6.0);
  cache.insert(10, a);
  cache.insert(20, b);

  const auto got_a = cache.lookup(10);
  const auto got_b = cache.lookup(20);
  ASSERT_TRUE(got_a.has_value());
  ASSERT_TRUE(got_b.has_value());
  EXPECT_EQ(got_a->mapping, a.mapping);
  EXPECT_DOUBLE_EQ(got_a->cost, a.cost);
  EXPECT_EQ(got_b->mapping, b.mapping);
  EXPECT_DOUBLE_EQ(got_b->cost, b.cost);
  // Distinct keys never alias each other's entries.
  EXPECT_FALSE(got_a->mapping == got_b->mapping);
}

TEST(SolutionCache, ZeroCapacityDisablesStorage) {
  SolutionCache cache(0);
  cache.insert(1, solution_of({0}, 1.0));
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.stats().size, 0u);
}

// ---- Deadline / cancellation contract ----------------------------------

TEST(DeadlineContract, ExpiredDeadlineStopFnFires) {
  const StopFn stop = make_stop_fn(Deadline::in(-1.0));
  ASSERT_TRUE(static_cast<bool>(stop));
  EXPECT_TRUE(stop());
}

TEST(DeadlineContract, UnlimitedDeadlineYieldsEmptyStopFn) {
  EXPECT_FALSE(static_cast<bool>(make_stop_fn(Deadline::never())));
}

TEST(DeadlineContract, MatchCancelledImmediatelyReturnsValidMapping) {
  const auto inst = make_instance(10, 3);
  const auto platform = inst->make_platform();
  sim::CostEvaluator eval(inst->tig().tig, platform);
  core::MatchOptimizer opt(eval);
  rng::Rng rng(1);
  const auto r = opt.run(match::SolverContext(rng, [] { return true; }));
  EXPECT_EQ(r.stop_reason, core::StopReason::kCancelled);
  EXPECT_TRUE(r.best_mapping.is_permutation());
  EXPECT_TRUE(std::isfinite(r.best_cost));
  EXPECT_DOUBLE_EQ(r.best_cost, eval.makespan(r.best_mapping));
}

TEST(DeadlineContract, EverySolverSurvivesImmediateCancellation) {
  const auto tig = make_instance(8, 4);
  const auto dag = make_dag_instance(8, 4);
  SolverRegistry registry;
  SolveOptions options;
  for (SolverKind kind : registry.kinds()) {
    const Solver& solver = registry.get(kind);
    // Feed each solver an instance of a kind it supports; DAG mappings
    // are many-to-one, so permutation-ness is a TIG-only invariant.
    const bool is_tig = solver.supports(workload::WorkloadKind::kTig);
    const auto& inst = is_tig ? *tig : *dag;
    ASSERT_TRUE(solver.supports(inst.kind())) << to_string(kind);
    const SolveOutcome outcome = solver.solve(
        inst, options, match::SolverContext([] { return true; }));
    if (is_tig) {
      EXPECT_TRUE(outcome.mapping.is_permutation()) << to_string(kind);
    } else {
      EXPECT_EQ(outcome.mapping.num_tasks(), dag->size()) << to_string(kind);
    }
    EXPECT_TRUE(std::isfinite(outcome.best_cost)) << to_string(kind);
  }
}

TEST(DeadlineContract, ServiceFlagsMissAndStillReturnsValidMapping) {
  ServiceConfig config;
  config.workers = 2;
  MappingService service(config);

  MapRequest request;
  request.instance = make_instance(12, 5);
  request.solver = SolverKind::kMatch;
  request.options.deadline_seconds = 1e-9;  // expires before pickup
  const MapResponse response = service.solve(std::move(request));

  EXPECT_TRUE(response.deadline_missed);
  EXPECT_TRUE(response.mapping.is_permutation());
  EXPECT_TRUE(std::isfinite(response.cost));
  EXPECT_GT(response.total_seconds, 1e-9);
  EXPECT_EQ(service.stats().deadline_misses, 1u);
  service.shutdown();
}

// ---- Service behavior --------------------------------------------------

TEST(Service, RepeatedRequestIsServedFromCacheByteIdentical) {
  ServiceConfig config;
  config.workers = 1;
  MappingService service(config);

  MapRequest request;
  request.instance = make_instance(10, 6);
  request.solver = SolverKind::kMatch;
  request.options.seed = 3;
  request.options.max_iterations = 10;

  MapRequest again = request;
  const MapResponse first = service.solve(std::move(request));
  const MapResponse second = service.solve(std::move(again));

  EXPECT_EQ(first.served_by, ServedBy::kSolver);
  EXPECT_EQ(second.served_by, ServedBy::kCache);
  EXPECT_EQ(second.mapping, first.mapping);
  EXPECT_DOUBLE_EQ(second.cost, first.cost);
  EXPECT_EQ(second.fingerprint, first.fingerprint);
  EXPECT_EQ(service.stats().cache_hits, 1u);
  service.shutdown();
}

TEST(Service, DistinctInstancesNeverShareCacheEntries) {
  ServiceConfig config;
  config.workers = 1;
  MappingService service(config);

  MapRequest a, b;
  a.instance = make_instance(10, 7);
  b.instance = make_instance(10, 8);
  a.options.max_iterations = b.options.max_iterations = 10;
  const MapResponse ra = service.solve(std::move(a));
  const MapResponse rb = service.solve(std::move(b));

  EXPECT_NE(ra.fingerprint, rb.fingerprint);
  EXPECT_EQ(ra.served_by, ServedBy::kSolver);
  EXPECT_EQ(rb.served_by, ServedBy::kSolver);  // no false hit
  EXPECT_EQ(service.stats().cache_hits, 0u);
  service.shutdown();
}

TEST(Service, CacheOptOutForcesFreshSolves) {
  ServiceConfig config;
  config.workers = 1;
  MappingService service(config);

  MapRequest request;
  request.instance = make_instance(8, 9);
  request.options.max_iterations = 5;
  request.options.use_cache = false;
  MapRequest again = request;

  const MapResponse first = service.solve(std::move(request));
  const MapResponse second = service.solve(std::move(again));
  EXPECT_EQ(first.served_by, ServedBy::kSolver);
  EXPECT_EQ(second.served_by, ServedBy::kSolver);
  // Determinism still holds: same seed, same answer — just recomputed.
  EXPECT_EQ(second.mapping, first.mapping);
  service.shutdown();
}

TEST(Service, SubmitAfterShutdownThrows) {
  MappingService service;
  service.shutdown();
  MapRequest request;
  request.instance = make_instance(8, 10);
  EXPECT_THROW(service.submit(std::move(request)), std::runtime_error);
}

TEST(Service, RejectsNullInstance) {
  MappingService service;
  MapRequest request;  // instance left null
  EXPECT_THROW(service.submit(std::move(request)), std::invalid_argument);
  service.shutdown();
}

TEST(Service, IdenticalConcurrentRequestsAllAgree) {
  // Whether each duplicate is served by the solver, the cache, or
  // coalesced onto the leader's run is scheduling-dependent — but the
  // mapping must be identical in all cases, and every request accounted.
  ServiceConfig config;
  config.workers = 4;
  MappingService service(config);

  MapRequest proto;
  proto.instance = make_instance(12, 11);
  proto.solver = SolverKind::kMatch;
  proto.options.seed = 2;
  proto.options.max_iterations = 20;

  constexpr std::size_t kDuplicates = 24;
  std::vector<std::future<MapResponse>> futures;
  for (std::size_t i = 0; i < kDuplicates; ++i) {
    MapRequest request = proto;
    request.id = i;
    futures.push_back(service.submit(std::move(request)));
  }
  std::vector<MapResponse> responses;
  for (auto& f : futures) responses.push_back(f.get());

  for (const MapResponse& r : responses) {
    EXPECT_TRUE(r.mapping.is_permutation());
    EXPECT_EQ(r.mapping, responses.front().mapping);
    EXPECT_DOUBLE_EQ(r.cost, responses.front().cost);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, kDuplicates);
  EXPECT_EQ(stats.completed, kDuplicates);
  service.shutdown();
}

// ---- Multi-threaded determinism smoke test -----------------------------

std::vector<MapResponse> run_smoke_batch(std::size_t workers,
                                         std::size_t requests) {
  const std::vector<std::shared_ptr<const workload::AnyInstance>> instances = {
      make_instance(8, 100), make_instance(10, 101), make_instance(12, 102)};

  ServiceConfig config;
  config.workers = workers;
  MappingService service(config);

  std::vector<std::future<MapResponse>> futures;
  futures.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    MapRequest request;
    request.id = i;
    request.instance = instances[i % instances.size()];
    switch (i % 3) {
      case 0:
        request.solver = SolverKind::kMatch;
        request.options.max_iterations = 5;
        break;
      case 1:
        request.solver = SolverKind::kLocalSearch;
        request.options.max_iterations = 400;
        break;
      default:
        request.solver = SolverKind::kMinMin;
        break;
    }
    request.options.seed = 1 + (i % 8);
    futures.push_back(service.submit(std::move(request)));
  }

  std::vector<MapResponse> responses;
  responses.reserve(requests);
  for (auto& f : futures) responses.push_back(f.get());
  service.shutdown();
  return responses;
}

TEST(Service, MultiThreadedSmokeIsDeterministicAcrossWorkerCounts) {
  // >= 4 workers, >= 200 requests (the satellite's floor); with no
  // deadlines in play the (mapping, cost) of every request must be
  // independent of worker count and scheduling.
  constexpr std::size_t kRequests = 200;
  const std::vector<MapResponse> serial = run_smoke_batch(1, kRequests);
  const std::vector<MapResponse> threaded = run_smoke_batch(4, kRequests);

  ASSERT_EQ(serial.size(), kRequests);
  ASSERT_EQ(threaded.size(), kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_TRUE(threaded[i].mapping.is_permutation()) << i;
    EXPECT_EQ(threaded[i].mapping, serial[i].mapping) << i;
    EXPECT_DOUBLE_EQ(threaded[i].cost, serial[i].cost) << i;
    EXPECT_FALSE(threaded[i].deadline_missed) << i;
  }
}

TEST(Service, StatsAccountForEveryRequest) {
  ServiceConfig config;
  config.workers = 2;
  MappingService service(config);

  constexpr std::size_t kRequests = 16;
  std::vector<std::future<MapResponse>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    MapRequest request;
    request.id = i;
    request.instance = make_instance(8, 200 + (i % 4));
    request.options.max_iterations = 5;
    futures.push_back(service.submit(std::move(request)));
  }
  for (auto& f : futures) f.get();
  service.drain();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_GT(stats.mean_latency_seconds, 0.0);
  EXPECT_GE(stats.p99_latency_seconds, stats.p50_latency_seconds);
  service.shutdown();
}

// ---- Request plumbing --------------------------------------------------

TEST(Request, SolverKindNamesRoundTrip) {
  for (SolverKind kind :
       {SolverKind::kMatch, SolverKind::kGa, SolverKind::kLocalSearch,
        SolverKind::kMinMin, SolverKind::kMaxMin, SolverKind::kSufferage,
        SolverKind::kHeft, SolverKind::kTopoList, SolverKind::kDagCe}) {
    EXPECT_EQ(parse_solver_kind(to_string(kind)), kind);
  }
  EXPECT_THROW(parse_solver_kind("no-such-solver"), std::invalid_argument);
}

// ---- Registry contract -------------------------------------------------

TEST(Registry, DuplicateRegistrationIsRejected) {
  // A second adapter silently shadowing the first would make dispatch
  // dependent on registration order; the registry refuses instead, and
  // `replace_solver` is the deliberate swap path.
  class NullSolver final : public Solver {
   public:
    const char* name() const override { return "null"; }
    SolveOutcome solve(const workload::AnyInstance&, const SolveOptions&,
                       const match::SolverContext&) const override {
      return {};
    }
  };
  SolverRegistry registry;
  EXPECT_THROW(
      registry.register_solver(SolverKind::kMatch,
                               std::make_unique<NullSolver>()),
      std::invalid_argument);
  // The original adapter is untouched by the failed insert.
  EXPECT_STREQ(registry.get(SolverKind::kMatch).name(), "match");
  registry.replace_solver(SolverKind::kMatch, std::make_unique<NullSolver>());
  EXPECT_STREQ(registry.get(SolverKind::kMatch).name(), "null");
}

TEST(Registry, WorkloadKindSupportMatchesAdapterFamily) {
  SolverRegistry registry;
  EXPECT_TRUE(registry.get(SolverKind::kMatch)
                  .supports(workload::WorkloadKind::kTig));
  EXPECT_FALSE(registry.get(SolverKind::kMatch)
                   .supports(workload::WorkloadKind::kDag));
  EXPECT_TRUE(registry.get(SolverKind::kHeft)
                  .supports(workload::WorkloadKind::kDag));
  EXPECT_FALSE(registry.get(SolverKind::kHeft)
                   .supports(workload::WorkloadKind::kTig));
  EXPECT_TRUE(registry.get(SolverKind::kDagCe)
                  .supports(workload::WorkloadKind::kDag));
}

TEST(Service, RejectsWorkloadKindMismatchAtSubmit) {
  MappingService service;
  MapRequest request;
  request.instance = make_dag_instance(8, 21);
  request.solver = SolverKind::kMatch;  // TIG-only solver, DAG instance
  EXPECT_THROW(service.submit(std::move(request)), std::invalid_argument);

  MapRequest tig_to_dag;
  tig_to_dag.instance = make_instance(8, 22);
  tig_to_dag.solver = SolverKind::kHeft;  // DAG-only solver, TIG instance
  EXPECT_THROW(service.submit(std::move(tig_to_dag)), std::invalid_argument);
  service.shutdown();
}

TEST(Service, ServesDagWorkloadsEndToEnd) {
  ServiceConfig config;
  config.workers = 2;
  MappingService service(config);

  const auto inst = make_dag_instance(12, 23);
  for (SolverKind kind :
       {SolverKind::kHeft, SolverKind::kTopoList, SolverKind::kDagCe}) {
    MapRequest request;
    request.instance = inst;
    request.solver = kind;
    request.options.seed = 7;
    const MapResponse response = service.solve(std::move(request));
    EXPECT_EQ(response.mapping.num_tasks(), inst->size()) << to_string(kind);
    EXPECT_TRUE(std::isfinite(response.cost)) << to_string(kind);
    EXPECT_GT(response.cost, 0.0) << to_string(kind);
  }
  service.shutdown();
}

TEST(Service, DagCeBooksResolvedEvalBackendCounter) {
  // DAG CE's priority-mode cost pass runs scalar lanes whatever
  // `solver_defaults.eval_backend` asks for, and it books the kernel that
  // actually ran as a `solver.backend.<name>` counter — same
  // observability contract as the TIG batch-evaluation solvers.
  for (const sim::EvalBackend requested :
       {sim::EvalBackend::kScalar, sim::EvalBackend::kAuto}) {
    ServiceConfig config;
    config.workers = 1;
    config.solver_defaults.eval_backend = requested;
    MappingService service(config);
    MapRequest request;
    request.instance = make_dag_instance(10, 31);
    request.solver = SolverKind::kDagCe;
    request.options.seed = 3;
    request.options.max_iterations = 2;
    (void)service.solve(std::move(request));
    EXPECT_GE(service.metrics().counter_value("solver.backend.scalar"), 1u)
        << sim::to_string(requested);
    const sim::EvalBackend resolved = sim::resolve_eval_backend(requested);
    if (resolved != sim::EvalBackend::kScalar) {
      EXPECT_EQ(service.metrics().counter_value(
                    std::string("solver.backend.") + sim::to_string(resolved)),
                0u);
    }
    service.shutdown();
  }
}

}  // namespace
}  // namespace match::service
