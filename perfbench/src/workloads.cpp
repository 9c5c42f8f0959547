#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "rng/rng.hpp"
#include "rng/splitmix64.hpp"
#include "service/instance_cache.hpp"
#include "workload/dag_suite.hpp"
#include "workload/paper_suite.hpp"

namespace perfbench {

namespace {

using match::service::SolverKind;
using match::workload::AnyInstance;
using match::workload::DagFamily;

// Stream tags keep the per-purpose value streams of one seed apart.
constexpr std::uint64_t kInstanceTag = 0x1a57a11ce5ULL;
constexpr std::uint64_t kSeedTag = 0x5eed5eedULL;
constexpr std::uint64_t kHotTag = 0x407407ULL;
constexpr std::uint64_t kOrderTag = 0x0dde7ULL;

// Instances and solve-request seeds come from this fixed seed, not the
// run's.  One solve's time varies several-fold with its instance and
// solver seed (the stop rules), so a run of ~150 solves drawn afresh per
// seed spreads by 10-20 %; with a fixed multiset per run only the order,
// which the run's seed sets, and the machine vary.
constexpr std::uint64_t kPoolSeed = 0x3a7c4;

// Solve workloads: a round sends every pool instance once, in an order
// shuffled per round by the run's seed; kOrderRounds shuffles repeat.
constexpr std::size_t kSolvePool = 48;
constexpr std::size_t kOrderRounds = 16;
// Solve requests per second of measured time, rounded to whole rounds
// (at least one): a third of a 20 s run sends 48 MaTCH or 96 DAG CE
// solves, about 7 s of work each on a 4-core x86 box.
constexpr double kTigPerSecond = 7.2;
constexpr double kDagPerSecond = 14.4;
constexpr std::uint64_t kMinRounds = 1;
// serve-cached: registered instances per kind, and the fixed seed set.
constexpr std::size_t kHotPerKind = 32;
constexpr std::uint64_t kHotSeeds = 4;
// serve-cached sends one write in kWritePeriod requests.
constexpr std::uint64_t kWritePeriod = 16;
// Fresh write-class instances.  More than the server's 4096-entry FIFO
// instance store, so a recurring instance has always been evicted and
// its write is a real insert.
constexpr std::size_t kFreshPool = 6144;

/// Value `index` of stream `tag` under `seed`; distinct indices give
/// distinct values (SplitMix64's output function is a bijection).
std::uint64_t stream_value(std::uint64_t seed, std::uint64_t tag,
                           std::uint64_t index) {
  const std::uint64_t base = match::rng::SplitMix64(seed ^ tag).next();
  return match::rng::SplitMix64(base + index).next();
}

InstancePtr make_tig(std::size_t n, std::uint64_t rng_seed) {
  match::workload::PaperParams params;
  params.n = n;
  match::rng::Rng rng(rng_seed);
  return std::make_shared<const AnyInstance>(
      match::workload::make_paper_instance(params, rng));
}

InstancePtr make_dag(DagFamily family, std::size_t tasks, std::size_t layers,
                     std::uint64_t rng_seed) {
  match::workload::DagSuiteParams params;
  params.tasks = tasks;
  params.resources = 8;
  params.layers = layers;
  match::rng::Rng rng(rng_seed);
  return std::make_shared<const AnyInstance>(
      match::workload::make_dag_instance(family, params, rng));
}

/// layered : fork-join : series-parallel = 2:1:1.
DagFamily dag_family(std::size_t j) {
  switch (j % 4) {
    case 1:
      return DagFamily::kForkJoin;
    case 3:
      return DagFamily::kSeriesParallel;
    default:
      return DagFamily::kLayered;
  }
}

SolverKind list_solver(const AnyInstance& instance) {
  return instance.is_tig() ? SolverKind::kMinMin : SolverKind::kHeft;
}

}  // namespace

WorkloadId parse_workload(const std::string& name) {
  if (name == "tig-solve") return WorkloadId::kTigSolve;
  if (name == "dag-solve") return WorkloadId::kDagSolve;
  if (name == "serve-cached") return WorkloadId::kServeCached;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const char* workload_name(WorkloadId id) {
  switch (id) {
    case WorkloadId::kTigSolve:
      return "tig-solve";
    case WorkloadId::kDagSolve:
      return "dag-solve";
    case WorkloadId::kServeCached:
      return "serve-cached";
  }
  return "?";
}

Workload make_workload(WorkloadId id, std::uint64_t seed) {
  Workload w;
  w.id = id;
  w.seed = seed;
  auto inst_seed = [](std::uint64_t j) {
    return stream_value(kPoolSeed, kInstanceTag, j);
  };
  switch (id) {
    case WorkloadId::kTigSolve:
      for (std::size_t j = 0; j < kSolvePool; ++j) {
        static constexpr std::size_t kSizes[] = {24, 32, 40};
        w.pool.push_back(make_tig(kSizes[j % 3], inst_seed(j)));
      }
      break;
    case WorkloadId::kDagSolve:
      for (std::size_t j = 0; j < kSolvePool; ++j) {
        const std::size_t tasks = (j / 4) % 2 == 0 ? 96 : 128;
        w.pool.push_back(make_dag(dag_family(j), tasks, tasks / 8, inst_seed(j)));
      }
      break;
    case WorkloadId::kServeCached: {
      std::uint64_t next = 0;
      for (std::size_t j = 0; j < kHotPerKind; ++j) {
        w.hot_instances.push_back(make_tig(8 + j % 5, inst_seed(next++)));
      }
      for (std::size_t j = 0; j < kHotPerKind; ++j) {
        const std::size_t tasks = 16 + j % 17;
        w.hot_instances.push_back(
            make_dag(dag_family(j), tasks, tasks / 8, inst_seed(next++)));
      }
      for (std::size_t i = 0; i < w.hot_instances.size(); ++i) {
        w.hot_fingerprints.push_back(
            match::service::fingerprint_instance(*w.hot_instances[i]));
        for (std::uint64_t s = 1; s <= kHotSeeds; ++s) {
          w.hot_keys.push_back({i, list_solver(*w.hot_instances[i]), s});
        }
      }
      for (std::size_t j = 0; j < kFreshPool; ++j) {
        const std::size_t k = j / 2;
        if (j % 2 == 0) {
          w.pool.push_back(make_tig(8 + k % 5, inst_seed(next++)));
        } else {
          const std::size_t tasks = 16 + k % 17;
          w.pool.push_back(
              make_dag(dag_family(k), tasks, tasks / 8, inst_seed(next++)));
        }
      }
      break;
    }
  }
  if (id != WorkloadId::kServeCached) {
    // Pool index j's class (TIG size, or DAG family x size) repeats with
    // period `stride`; shuffling only within each class keeps every
    // position's class fixed, so the two connections always pair the
    // same kinds of solve and only the instances vary with the seed.
    const std::size_t stride = id == WorkloadId::kTigSolve ? 3 : 8;
    for (std::size_t r = 0; r < kOrderRounds; ++r) {
      std::vector<std::uint32_t> order(kSolvePool);
      for (std::size_t p = 0; p < kSolvePool; ++p) order[p] = static_cast<std::uint32_t>(p);
      match::rng::Rng rng(stream_value(seed, kOrderTag, r));
      // Fisher-Yates per class on the library RNG: std::shuffle's
      // algorithm is implementation-defined, so it would not reproduce
      // across builds.
      for (std::size_t c = 0; c < stride; ++c) {
        for (std::size_t k = kSolvePool / stride - 1; k > 0; --k) {
          std::swap(order[c + k * stride], order[c + rng.below(k + 1) * stride]);
        }
      }
      w.order.push_back(std::move(order));
    }
  }
  return w;
}

std::uint64_t Workload::requests_per_run(double seconds) const {
  if (id == WorkloadId::kServeCached) return 0;
  const double rate = id == WorkloadId::kTigSolve ? kTigPerSecond : kDagPerSecond;
  const auto rounds = static_cast<std::uint64_t>(std::llround(seconds * rate / kSolvePool));
  return std::max(rounds, kMinRounds) * kSolvePool;
}

std::size_t Workload::slot(std::uint64_t index) const {
  return order[(index / kSolvePool) % order.size()][index % kSolvePool];
}

std::uint64_t Workload::solver_seed(std::uint64_t index) const {
  if (id == WorkloadId::kServeCached) return stream_value(seed, kSeedTag, index);
  // Keyed by (round, instance), not by position: the same multiset of
  // (instance, seed) pairs for every run seed.
  const std::uint64_t round = index / kSolvePool;
  return stream_value(kPoolSeed, kSeedTag, round * kSolvePool + slot(index));
}

bool Workload::is_write(std::uint64_t index) const {
  return id != WorkloadId::kServeCached ||
         index % kWritePeriod == kWritePeriod - 1;
}

std::size_t Workload::hot_key_of(std::uint64_t index) const {
  return static_cast<std::size_t>(stream_value(seed, kHotTag, index) %
                                  hot_keys.size());
}

const InstancePtr& Workload::instance_of(std::uint64_t index) const {
  if (id != WorkloadId::kServeCached) return pool[slot(index) % pool.size()];
  if (is_write(index)) return pool[(index / kWritePeriod) % pool.size()];
  return hot_instances[hot_keys[hot_key_of(index)].instance];
}

match::net::WireRequest Workload::request(std::uint64_t index,
                                          std::uint64_t request_id) const {
  match::net::WireRequest req;
  req.request_id = request_id;
  req.request.id = request_id;
  if (is_write(index)) {
    req.request.instance = instance_of(index);
    req.request.options.seed = solver_seed(index);
    switch (id) {
      case WorkloadId::kTigSolve:
        req.request.solver = SolverKind::kMatch;
        break;
      case WorkloadId::kDagSolve:
        req.request.solver = SolverKind::kDagCe;
        break;
      case WorkloadId::kServeCached:
        req.request.solver = list_solver(*req.request.instance);
        break;
    }
    return req;
  }
  const HotKey& key = hot_keys[hot_key_of(index)];
  req.by_fingerprint = true;
  req.instance_fingerprint = hot_fingerprints[key.instance];
  req.request.solver = key.solver;
  req.request.options.seed = key.seed;
  return req;
}

match::net::WireRequest Workload::inline_request(
    std::uint64_t index, std::uint64_t request_id) const {
  match::net::WireRequest req = request(index, request_id);
  req.by_fingerprint = false;
  req.instance_fingerprint = 0;
  req.request.instance = instance_of(index);
  return req;
}

}  // namespace perfbench
