#pragma once

// Request-scoped span tracing: where a request spent its life.
//
// A `SpanTimeline` is one request's story, keyed by the wire
// `request_id`: a handful of `SpanRecord`s — one per pipeline stage the
// request crossed (reactor read, frame decode, admission decision,
// queue wait, solve, response encode, write/flush) — each with start and
// end offsets on the *monotonic* clock relative to the timeline origin,
// plus an optional outcome tag ("admitted", "shed", "partial", the
// serving solver, ...).  The stamping discipline is single-writer
// hand-off: the reactor owns the timeline until `try_submit` succeeds,
// the worker owns it until the completion callback enqueues it on the
// outbox, and the reactor owns it again until `finish` seals it — the
// outbox mutex provides the happens-before edges, so the timeline itself
// needs no lock.
//
// Completed timelines land in a `FlightRecorder`: a bounded,
// lock-sharded ring that keeps the last-N requests *plus* every request
// slower than a configurable threshold (up to a separate bound), so a
// tail incident an hour old is still dumpable after millions of fast
// requests evicted the rest.  Two dump paths:
//
//   * `render_debug_requests` — bounded JSON for net::MatchServer's
//     `/debug/requests` HTTP route;
//   * `attach_stream` — every sealed timeline appended to a JSONL
//     stream (`match_server --span-trace out.jsonl`), doubles in
//     shortest round-trip form exactly like obs/events.cpp, parsed back
//     by `from_span_jsonl` / `read_span_jsonl_lenient` for
//     `match_inspect spans`.
//
// Spans obey the PR 2 pure-observer contract: stamping reads the clock
// and appends to a pre-sized vector — it never touches solver state or
// RNG streams — and every call site is gated so a server without a
// recorder takes zero extra clock reads (pinned by tests/spans_test.cpp
// and the span arm of bench/ext_obs_overhead.cpp, budget < 2%).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace match::obs {

/// Span timestamps live on the monotonic clock: wall-clock steps (NTP,
/// leap smearing) must never corrupt a duration.
using SpanClock = std::chrono::steady_clock;
static_assert(SpanClock::is_steady,
              "span durations require a monotonic clock");

/// The pipeline stages a request can cross, in pipeline order.
enum class SpanStage : std::uint8_t {
  kAccept,      ///< reactor read readiness → frame decode start
  kDecode,      ///< wire frame → MapRequest
  kAdmission,   ///< instance/solver/deadline/shed decision
  kQueueWait,   ///< service enqueue → worker pickup
  kSolve,       ///< worker pickup → response ready (cache/coalesce/solver)
  kEncode,      ///< response → wire bytes
  kWriteFlush,  ///< wire bytes → socket (or outbox buffer)
};

inline constexpr std::size_t kNumSpanStages = 7;

const char* to_string(SpanStage stage);

/// Inverse of `to_string`; throws `std::invalid_argument` on unknown
/// names.
SpanStage parse_span_stage(std::string_view name);

/// One stage crossing: [start, end] as seconds since the timeline
/// origin, with an optional outcome tag.
struct SpanRecord {
  SpanStage stage = SpanStage::kAccept;
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  std::string outcome;  ///< "" = unremarkable

  double duration_seconds() const { return end_seconds - start_seconds; }

  bool operator==(const SpanRecord&) const = default;
};

/// One request's stage-by-stage latency story.  Plain data plus
/// stamping helpers; see the header comment for the ownership
/// discipline (single writer at any instant, no internal lock).
struct SpanTimeline {
  std::uint64_t request_id = 0;
  /// Terminal decision, `MatchServer::finish` vocabulary ("net.served",
  /// "net.shed", ...); empty until `finalize`.
  std::string outcome;
  std::string solver;  ///< solver name when known ("" otherwise)
  double total_seconds = 0.0;  ///< origin → finalize
  std::vector<SpanRecord> spans;  ///< stamp order == pipeline order

  /// Anchors the relative clock.  Not serialized: offsets are the
  /// portable representation.
  SpanClock::time_point origin{};

  void start(std::uint64_t id, SpanClock::time_point at) {
    request_id = id;
    origin = at;
    spans.reserve(kNumSpanStages);
  }

  /// Appends a stage crossing measured as absolute time points.
  void stamp(SpanStage stage, SpanClock::time_point from,
             SpanClock::time_point to, std::string stage_outcome = {});

  /// Appends a stage crossing already expressed as origin-relative
  /// seconds (tests, tools, benches).
  void stamp_seconds(SpanStage stage, double start_seconds,
                     double end_seconds, std::string stage_outcome = {});

  /// Rewrites the outcome of the *last* span of `stage` (admission
  /// stamps optimistically before `try_submit`, then corrects to "shed"
  /// when the service queue turns out to be full).  No-op when the
  /// stage was never stamped.
  void set_outcome(SpanStage stage, std::string_view stage_outcome);

  /// Seals the timeline: terminal outcome + total.
  void finalize(std::string_view terminal_outcome, SpanClock::time_point at);

  const SpanRecord* find(SpanStage stage) const;

  /// Sum of span durations — the part of `total_seconds` attributed to
  /// named stages.
  double attributed_seconds() const;

  /// `total_seconds` minus attributed: hand-off gaps (outbox crossing,
  /// wakeup latency).  Never negative in a well-formed timeline.
  double unattributed_seconds() const {
    return total_seconds - attributed_seconds();
  }
};

/// One line of JSONL, doubles in shortest round-trip form:
///   {"request":7,"outcome":"net.served","solver":"match","total":...,
///    "spans":[{"stage":"queue_wait","start":...,"end":...},...]}
std::string to_span_jsonl(const SpanTimeline& timeline);
void append_span_jsonl(std::string& out, const SpanTimeline& timeline);

/// Inverse of `to_span_jsonl` (exact doubles); throws
/// `std::invalid_argument` on malformed lines.  Unknown keys are
/// skipped so the schema may grow.
SpanTimeline from_span_jsonl(std::string_view line);

struct SpanTrace {
  std::vector<SpanTimeline> timelines;
  std::size_t total_lines = 0;    ///< non-blank lines seen
  std::size_t skipped_lines = 0;  ///< malformed lines skipped
};

/// Lenient reader: skips-and-counts lines `from_span_jsonl` rejects
/// (a server killed mid-write leaves a torn last line); never throws.
SpanTrace read_span_jsonl_lenient(std::istream& is);

struct FlightRecorderConfig {
  /// Last-N retention: total sealed timelines kept across the shards
  /// regardless of speed.
  std::size_t recent_capacity = 512;

  /// Timelines with `total_seconds >= slow_threshold_seconds` go to a
  /// separate retention list that fast traffic cannot evict.
  double slow_threshold_seconds = 0.100;

  /// Bound on the slow list (FIFO within each shard once full) so a
  /// pathological deployment cannot grow memory without limit.
  std::size_t slow_capacity = 4096;

  /// Lock shards; rounded up to a power of two, min 1.  The reactor is
  /// single-threaded but benches and multi-server processes record
  /// concurrently.
  std::size_t shards = 8;

  void validate() const;
};

/// Bounded retention of sealed SpanTimelines: last-N plus all-slow, a
/// total counter, and an optional JSONL stream.  Thread-safe; `record`
/// takes one shard mutex (plus the stream mutex when attached).
class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config = {});

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  const FlightRecorderConfig& config() const noexcept { return config_; }

  /// Takes ownership of a sealed timeline.  When a stream is attached
  /// the timeline is serialized (outside the shard lock) and appended
  /// before retention bookkeeping.
  void record(SpanTimeline&& timeline);

  /// Every retained timeline, oldest first (global record order).
  std::vector<SpanTimeline> snapshot() const;

  std::size_t recorded() const;  ///< total ever recorded
  std::size_t dropped() const;   ///< evicted without slow retention

  /// Attaches (or detaches, nullptr) the JSONL stream.  The stream must
  /// outlive the recorder or be detached first; writes are serialized
  /// by an internal mutex.  Call `flush_stream` before reading the file.
  void attach_stream(std::ostream* os);
  void flush_stream();

 private:
  struct Entry {
    std::uint64_t seq = 0;
    SpanTimeline timeline;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::vector<Entry> recent;  ///< ring, next_recent points at oldest
    std::size_t next_recent = 0;
    std::vector<Entry> slow;  ///< FIFO once full (erase front)
  };

  FlightRecorderConfig config_;
  std::size_t shard_mask_ = 0;
  std::vector<Shard> shards_;
  std::size_t recent_per_shard_ = 0;
  std::size_t slow_per_shard_ = 0;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> dropped_{0};

  std::mutex stream_mutex_;
  std::ostream* stream_ = nullptr;
};

/// JSON for the `/debug/requests` route: recorder totals plus the most
/// recent retained timelines, newest first, truncated (whole timelines
/// only) so the document stays under `max_bytes`.
std::string render_debug_requests(const FlightRecorder& recorder,
                                  std::size_t max_bytes = 1u << 20);

}  // namespace match::obs
