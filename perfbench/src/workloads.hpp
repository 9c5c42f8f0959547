#pragma once

// The three request streams of the end-to-end benchmark.  A stream is a
// pure function of (workload, seed, index): `request(i)` always builds
// the same wire request, whichever client connection ends up sending
// it, so equal seeds give byte-identical streams.  Instances are
// generated once during set-up from a fixed pool seed; the server only
// ever sees these requests.
//
//   tig-solve     paper-family TIG instances (n 24/32/40), inline, kMatch,
//                 a distinct solver seed per request -> every request is
//                 a cache miss that runs MaTCH to convergence.
//   dag-solve     layered : fork-join : series-parallel = 2:1:1 DAGs with
//                 96/128 tasks on 8 resources, inline, kDagCe, distinct
//                 solver seeds -> every request is a miss.
//   serve-cached  small TIG (n 8-12, kMinMin) and DAG (16-32 tasks, kHeft)
//                 instances registered in set-up, requested by
//                 fingerprint over a fixed seed set (cache hits after
//                 warm-up); every 16th request is a write: a fresh
//                 instance inline with a unique seed (decode, fingerprint,
//                 instance-store insert, list solve, cache insert).
//
// A solve run is a fixed number of rounds; each round sends every pool
// instance once with a fixed solver seed per (round, instance), in an
// order the run's seed shuffles.  Every run thus solves the same work.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "service/request.hpp"
#include "workload/any_instance.hpp"

namespace perfbench {

enum class WorkloadId { kTigSolve, kDagSolve, kServeCached };

/// Parses "tig-solve" / "dag-solve" / "serve-cached"; throws
/// std::invalid_argument otherwise.
WorkloadId parse_workload(const std::string& name);
const char* workload_name(WorkloadId id);

using InstancePtr = std::shared_ptr<const match::workload::AnyInstance>;

/// A (registered instance, solver, seed) triple of serve-cached.
struct HotKey {
  std::size_t instance = 0;  ///< index into Workload::hot_instances
  match::service::SolverKind solver = match::service::SolverKind::kMinMin;
  std::uint64_t seed = 0;
};

struct Workload {
  WorkloadId id = WorkloadId::kTigSolve;
  std::uint64_t seed = 0;

  /// Solve workloads: the instances requests cycle through.  serve-cached:
  /// the fresh instances its write class sends inline.
  std::vector<InstancePtr> pool;

  /// Solve workloads: per-round shuffles of the pool indices.
  std::vector<std::vector<std::uint32_t>> order;

  /// serve-cached only: instances registered in set-up, their canonical
  /// fingerprints, and the keys requested by fingerprint.
  std::vector<InstancePtr> hot_instances;
  std::vector<std::uint64_t> hot_fingerprints;
  std::vector<HotKey> hot_keys;

  /// True when request `index` sends its instance inline (every solve
  /// request; serve-cached's write class).
  bool is_write(std::uint64_t index) const;

  /// serve-cached: the hot key request `index` asks for.  Precondition:
  /// `!is_write(index)`.
  std::size_t hot_key_of(std::uint64_t index) const;

  /// Solve workloads: the fixed number of requests a run of `seconds`
  /// sends (whole rounds).  0 for serve-cached, which runs for a time.
  std::uint64_t requests_per_run(double seconds) const;

  /// Solve workloads: the pool index request `index` takes.
  std::size_t slot(std::uint64_t index) const;

  /// The solver seed of write-class request `index`.
  std::uint64_t solver_seed(std::uint64_t index) const;

  /// The instance request `index` is about.
  const InstancePtr& instance_of(std::uint64_t index) const;

  /// The request at position `index` of the stream.  `request_id` is the
  /// wire id the caller wants (ids must be unique per server for span
  /// joins; the stream itself is independent of it).
  match::net::WireRequest request(std::uint64_t index,
                                  std::uint64_t request_id) const;

  /// The same request with its instance inline — the re-send after a
  /// kUnknownInstance answer.
  match::net::WireRequest inline_request(std::uint64_t index,
                                         std::uint64_t request_id) const;
};

/// Generates every instance of the workload from `seed`.
Workload make_workload(WorkloadId id, std::uint64_t seed);

}  // namespace perfbench
