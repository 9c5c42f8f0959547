#pragma once

// The single per-run argument every solver takes.
//
// Replaces the old scattered `(rng, should_stop)` conventions: one
// `SolverContext` bundles the RNG stream, the cooperative stop hook, the
// telemetry sink/metrics pair, the thread pool to run on, and a run id
// that correlates all events of the run.  All members are optional
// except that solvers which sample require an RNG (`rng()` throws when
// unset — constructing a context without one is only useful for
// deterministic solvers like min-min).
//
// Contexts are cheap to copy and chainable:
//
//   rng::Rng rng(seed);
//   auto ctx = match::SolverContext(rng)
//                  .with_stop(deadline_hook)
//                  .with_sink(&trace)
//                  .with_metrics(&registry);
//   auto result = optimizer.run(ctx);
//
// Solvers accept `const SolverContext&`, so a temporary
// `opt.run(match::SolverContext(rng))` works at call sites that only
// have an RNG.  The old per-solver `(rng)` / `(rng, stop)` signatures
// are gone (tests/legacy_api_test.cpp pins that they no longer compile).

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "core/stop.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "rng/rng.hpp"

namespace match {

namespace parallel {
class ThreadPool;
}

namespace obs {
struct SpanTimeline;
}

class SolverContext {
 public:
  SolverContext() = default;

  explicit SolverContext(rng::Rng& rng) : rng_(&rng) {}

  SolverContext(rng::Rng& rng, StopFn should_stop)
      : rng_(&rng), should_stop_(std::move(should_stop)) {}

  explicit SolverContext(StopFn should_stop)
      : should_stop_(std::move(should_stop)) {}

  // -- Chainable setters (return *this so contexts build in one line). --
  SolverContext& with_rng(rng::Rng& rng) {
    rng_ = &rng;
    return *this;
  }
  SolverContext& with_stop(StopFn should_stop) {
    should_stop_ = std::move(should_stop);
    return *this;
  }
  SolverContext& with_sink(obs::EventSink* sink) {
    sink_ = sink;
    return *this;
  }
  SolverContext& with_metrics(obs::MetricsRegistry* metrics) {
    metrics_ = metrics;
    return *this;
  }
  SolverContext& with_pool(parallel::ThreadPool* pool) {
    pool_ = pool;
    return *this;
  }
  SolverContext& with_run_id(std::uint64_t run_id) {
    run_id_ = run_id;
    return *this;
  }
  /// Attaches the request's span timeline (single-writer: the worker
  /// thread running the solver owns it for the duration of the call).
  SolverContext& with_span(obs::SpanTimeline* span) {
    span_ = span;
    return *this;
  }

  // -- Accessors. --
  bool has_rng() const { return rng_ != nullptr; }

  rng::Rng& rng() const {
    if (rng_ == nullptr) {
      throw std::logic_error(
          "SolverContext: solver requires an RNG but none was attached "
          "(use SolverContext(rng) or with_rng)");
    }
    return *rng_;
  }

  const StopFn& stop_fn() const { return should_stop_; }

  /// Polls the stop hook; false when no hook is attached.
  bool stop_requested() const { return should_stop_ && should_stop_(); }

  obs::EventSink* sink() const { return sink_; }
  obs::MetricsRegistry* metrics() const { return metrics_; }
  parallel::ThreadPool* pool() const { return pool_; }
  std::uint64_t run_id() const { return run_id_; }
  obs::SpanTimeline* span() const { return span_; }

  /// True when an event sink is attached (solvers may restructure loops
  /// for phase timing only in this case).
  bool traced() const { return sink_ != nullptr; }

  /// Emits an event if a sink is attached; no-op otherwise.
  void emit(const obs::Event& event) const {
    if (sink_ != nullptr) sink_->emit(event);
  }

 private:
  rng::Rng* rng_ = nullptr;
  StopFn should_stop_;
  obs::EventSink* sink_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  parallel::ThreadPool* pool_ = nullptr;
  std::uint64_t run_id_ = 0;
  obs::SpanTimeline* span_ = nullptr;
};

}  // namespace match
