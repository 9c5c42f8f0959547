#pragma once

// Structured event tracing for solver and service runs.
//
// Every CE-family solver emits a stream of flat `Event` records through
// the `EventSink` attached to its `match::SolverContext`: one
// `kIteration` event per iteration (γ, iteration best, best-so-far,
// elite-cost spread, `P` row-max mean and entropy), `kPhase` events
// timing the draw / cost / sort / update steps, and `kRunStart` /
// `kRunEnd` brackets.  The mapping service adds `kService` events
// (enqueue, cache hit/miss, coalesce, deadline expiry) and solvers flag
// deadline-starved fallback evaluations with `kFallbackDraw`.
//
// Sinks must be thread-safe: the service shares one sink across worker
// pumps, and island solvers emit from pool threads.  Emission must never
// perturb the run itself — sinks observe, they do not touch the RNG
// stream or the optimization state (tests/obs_test.cpp pins this: a
// traced run is byte-identical to an untraced one).
//
// The JSONL serialization (`to_jsonl`/`from_jsonl`) goes through the
// obs layer's one JSON codec (obs/json.hpp) and round-trips doubles
// exactly (shortest round-trip form via std::to_chars), so a replayed
// trace reconstructs e.g. the γ trajectory bit-for-bit.  Whole traces
// are read back by `read_jsonl_lenient` (obs/trace_analysis.hpp).
// Schema reference: docs/OBSERVABILITY.md.

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace match::obs {

enum class EventKind : std::uint8_t {
  kRunStart,      ///< a solver run began
  kIteration,     ///< one CE iteration / GA generation / island epoch
  kPhase,         ///< timing of one phase (draw/cost/sort/update) of one iteration
  kService,       ///< mapping-service lifecycle (enqueue, cache_hit, ...)
  kFallbackDraw,  ///< cancelled-before-first-batch fallback evaluation
  kRunEnd,        ///< a solver run finished
};

const char* to_string(EventKind kind);

/// Parses the names printed by `to_string`; throws `std::invalid_argument`
/// on unknown names.
EventKind parse_event_kind(std::string_view name);

/// One trace record.  Flat by design: every kind uses a subset of the
/// fields (see the factory helpers), unused fields stay zero/empty, and
/// the JSONL serializer writes only the subset relevant to the kind.
struct Event {
  EventKind kind = EventKind::kIteration;
  /// Correlates all events of one solver run; the service assigns one id
  /// per request, library users pick their own (0 is fine for single runs).
  std::uint64_t run_id = 0;
  std::string solver;  ///< "match", "ce", "fastmap-ga", "island", ...

  std::uint64_t iteration = 0;

  // kIteration payload.
  double gamma = 0.0;          ///< elite threshold γ_k
  double iter_best = 0.0;      ///< best cost in this batch
  double best_so_far = 0.0;    ///< best cost over all batches
  double elite_spread = 0.0;   ///< γ_k − batch best: cost spread inside the elite set
  double row_max_mean = 0.0;   ///< mean over rows of max_j p_ij (0 when no matrix)
  double entropy = 0.0;        ///< mean row entropy of P in bits (0 when no matrix)
  std::uint64_t elite_count = 0;

  // kPhase / kService payload.
  std::string phase;     ///< "draw"|"cost"|"sort"|"update", or the service action
  double seconds = 0.0;  ///< phase duration / request latency

  bool operator==(const Event&) const = default;

  // -- Factories: one per kind, taking exactly the fields the kind uses. --
  static Event run_start(std::uint64_t run_id, std::string_view solver);
  static Event run_end(std::uint64_t run_id, std::string_view solver,
                       std::uint64_t iterations, double best_cost,
                       double seconds);
  static Event iteration_event(std::uint64_t run_id, std::string_view solver,
                               std::uint64_t iteration, double gamma,
                               double iter_best, double best_so_far,
                               double elite_spread, double row_max_mean,
                               double entropy, std::uint64_t elite_count);
  static Event phase_event(std::uint64_t run_id, std::string_view solver,
                           std::uint64_t iteration, std::string_view phase,
                           double seconds);
  static Event service_event(std::uint64_t run_id, std::string_view solver,
                             std::string_view action, double seconds = 0.0);
  static Event fallback_draw(std::uint64_t run_id, std::string_view solver);
};

/// Where events go.  Implementations must be safe to call from multiple
/// threads concurrently and must not throw out of `emit`.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void emit(const Event& event) = 0;
};

/// Discards everything.  Useful as the control arm of overhead
/// measurements (bench/ext_obs_overhead.cpp): the solver still builds and
/// emits every event, only the serialization/storage cost differs.
class NullSink final : public EventSink {
 public:
  void emit(const Event&) override {}
};

/// Serializes each event as one JSON line on an externally owned stream.
/// A single mutex orders concurrent emitters, so interleaved writers
/// never tear lines.
class JsonlSink final : public EventSink {
 public:
  /// The stream must outlive the sink.  Hot-path emits never flush (one
  /// flush per event would dominate tracing cost); the destructor
  /// flushes so a trace survives as long as the sink is torn down, and
  /// long-lived servers call `flush()` at checkpoints so an abnormal
  /// shutdown loses at most the events since the last checkpoint.
  explicit JsonlSink(std::ostream& os) : os_(&os) {}

  ~JsonlSink() override { flush(); }

  void emit(const Event& event) override;

  /// Flushes the underlying stream (serialized with concurrent emits).
  void flush();

  std::size_t emitted() const;

 private:
  std::ostream* os_;
  mutable std::mutex mutex_;
  std::size_t emitted_ = 0;
};

/// Keeps the most recent `capacity` events in memory; older events are
/// dropped (counted).  The cheap always-on sink for in-process
/// inspection.
class RingBufferSink final : public EventSink {
 public:
  explicit RingBufferSink(std::size_t capacity = 4096);

  void emit(const Event& event) override;

  /// Retained events, oldest first.
  std::vector<Event> snapshot() const;

  std::size_t total() const;    ///< events ever emitted
  std::size_t dropped() const;  ///< events evicted by the ring

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::vector<Event> ring_;
  std::size_t next_ = 0;   ///< insertion cursor once the ring is full
  std::size_t total_ = 0;
};

/// Duplicates every event to both sinks (either may be null).  Lets the
/// service tee a caller's trace sink with its own accounting sink.
class TeeSink final : public EventSink {
 public:
  TeeSink(EventSink* first, EventSink* second) : first_(first), second_(second) {}

  void emit(const Event& event) override {
    if (first_ != nullptr) first_->emit(event);
    if (second_ != nullptr) second_->emit(event);
  }

 private:
  EventSink* first_;
  EventSink* second_;
};

/// One-line JSON serialization of an event (no trailing newline).
/// Doubles use the shortest form that round-trips exactly.
std::string to_jsonl(const Event& event);

/// Serializes into a caller-owned buffer (appended, not cleared) —
/// lets hot emit paths reuse one allocation across events.
void append_jsonl(std::string& out, const Event& event);

/// Parses a line produced by `to_jsonl`.  Unknown keys are ignored,
/// whatever their value (schema may grow); `kind` is required.  Throws
/// `std::invalid_argument` on malformed input, including bytes after
/// the closing brace.
Event from_jsonl(std::string_view line);

}  // namespace match::obs
