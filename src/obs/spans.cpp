#include "obs/spans.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"

namespace match::obs {
namespace {

struct StageName {
  SpanStage stage;
  const char* name;
};

constexpr std::array<StageName, kNumSpanStages> kStageNames{{
    {SpanStage::kAccept, "accept"},
    {SpanStage::kDecode, "decode"},
    {SpanStage::kAdmission, "admission"},
    {SpanStage::kQueueWait, "queue_wait"},
    {SpanStage::kSolve, "solve"},
    {SpanStage::kEncode, "encode"},
    {SpanStage::kWriteFlush, "write_flush"},
}};

double seconds_between(SpanClock::time_point from, SpanClock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

const char* to_string(SpanStage stage) {
  for (const StageName& sn : kStageNames) {
    if (sn.stage == stage) return sn.name;
  }
  return "unknown";
}

SpanStage parse_span_stage(std::string_view name) {
  for (const StageName& sn : kStageNames) {
    if (name == sn.name) return sn.stage;
  }
  throw std::invalid_argument("spans: unknown stage '" + std::string(name) +
                              "'");
}

void SpanTimeline::stamp(SpanStage stage, SpanClock::time_point from,
                         SpanClock::time_point to, std::string stage_outcome) {
  stamp_seconds(stage, seconds_between(origin, from),
                seconds_between(origin, to), std::move(stage_outcome));
}

void SpanTimeline::stamp_seconds(SpanStage stage, double start_seconds,
                                 double end_seconds,
                                 std::string stage_outcome) {
  SpanRecord span;
  span.stage = stage;
  span.start_seconds = start_seconds;
  span.end_seconds = end_seconds;
  span.outcome = std::move(stage_outcome);
  spans.push_back(std::move(span));
}

void SpanTimeline::set_outcome(SpanStage stage,
                               std::string_view stage_outcome) {
  for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
    if (it->stage == stage) {
      it->outcome = stage_outcome;
      return;
    }
  }
}

void SpanTimeline::finalize(std::string_view terminal_outcome,
                            SpanClock::time_point at) {
  outcome = terminal_outcome;
  total_seconds = seconds_between(origin, at);
}

const SpanRecord* SpanTimeline::find(SpanStage stage) const {
  for (const SpanRecord& span : spans) {
    if (span.stage == stage) return &span;
  }
  return nullptr;
}

double SpanTimeline::attributed_seconds() const {
  double sum = 0.0;
  for (const SpanRecord& span : spans) sum += span.duration_seconds();
  return sum;
}

void append_span_jsonl(std::string& out, const SpanTimeline& timeline) {
  out += "{\"request\":";
  append_u64(out, timeline.request_id);
  out += ",\"outcome\":";
  append_json_string(out, timeline.outcome);
  if (!timeline.solver.empty()) {
    out += ",\"solver\":";
    append_json_string(out, timeline.solver);
  }
  out += ",\"total\":";
  append_double(out, timeline.total_seconds);
  out += ",\"spans\":[";
  bool first = true;
  for (const SpanRecord& span : timeline.spans) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"stage\":";
    append_json_string(out, to_string(span.stage));
    out += ",\"start\":";
    append_double(out, span.start_seconds);
    out += ",\"end\":";
    append_double(out, span.end_seconds);
    if (!span.outcome.empty()) {
      out += ",\"outcome\":";
      append_json_string(out, span.outcome);
    }
    out.push_back('}');
  }
  out += "]}";
}

std::string to_span_jsonl(const SpanTimeline& timeline) {
  std::string out;
  out.reserve(256);
  append_span_jsonl(out, timeline);
  return out;
}

namespace {

SpanRecord span_from_json(const JsonValue& v) {
  SpanRecord span;
  bool saw_stage = false;
  for (const auto& [key, field] : v.object) {
    if (key == "stage") {
      span.stage = parse_span_stage(field.as_string());
      saw_stage = true;
    } else if (key == "start") {
      span.start_seconds = field.as_double();
    } else if (key == "end") {
      span.end_seconds = field.as_double();
    } else if (key == "outcome") {
      span.outcome = field.as_string();
    }
  }
  if (!saw_stage) throw std::invalid_argument("spans: span has no stage");
  return span;
}

}  // namespace

SpanTimeline from_span_jsonl(std::string_view line) {
  const JsonValue doc = parse_json(line);
  SpanTimeline tl;
  bool saw_request = false;
  // Unknown keys are skipped (schema growth).
  for (const auto& [key, v] : doc.object) {
    if (key == "request") {
      tl.request_id = v.as_u64();
      saw_request = true;
    } else if (key == "outcome") {
      tl.outcome = v.as_string();
    } else if (key == "solver") {
      tl.solver = v.as_string();
    } else if (key == "total") {
      tl.total_seconds = v.as_double();
    } else if (key == "spans") {
      if (v.kind != JsonValue::Kind::kArray) {
        throw std::invalid_argument("spans: \"spans\" is not an array");
      }
      for (const JsonValue& span : v.array) {
        tl.spans.push_back(span_from_json(span));
      }
    }
  }
  if (!saw_request) {
    throw std::invalid_argument("spans: timeline line has no request id");
  }
  return tl;
}

SpanTrace read_span_jsonl_lenient(std::istream& is) {
  SpanTrace out;
  const JsonlLineCounts counts =
      for_each_jsonl_line(is, [&](std::string_view line) {
        out.timelines.push_back(from_span_jsonl(line));
      });
  out.total_lines = counts.total_lines;
  out.skipped_lines = counts.skipped_lines;
  return out;
}

// -------------------------------------------------------- FlightRecorder

void FlightRecorderConfig::validate() const {
  if (recent_capacity == 0) {
    throw std::invalid_argument(
        "FlightRecorderConfig: recent_capacity must be >= 1");
  }
  if (slow_threshold_seconds < 0.0) {
    throw std::invalid_argument(
        "FlightRecorderConfig: slow_threshold_seconds must be >= 0");
  }
}

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(config) {
  config_.validate();
  const std::size_t shard_count =
      std::bit_ceil(std::max<std::size_t>(config_.shards, 1));
  shard_mask_ = shard_count - 1;
  shards_ = std::vector<Shard>(shard_count);
  recent_per_shard_ =
      std::max<std::size_t>(1, (config_.recent_capacity + shard_count - 1) /
                                   shard_count);
  slow_per_shard_ =
      std::max<std::size_t>(1, (config_.slow_capacity + shard_count - 1) /
                                   shard_count);
  for (Shard& shard : shards_) shard.recent.reserve(recent_per_shard_);
}

void FlightRecorder::record(SpanTimeline&& timeline) {
  {
    std::lock_guard<std::mutex> lock(stream_mutex_);
    if (stream_ != nullptr) {
      thread_local std::string line;
      line.clear();
      append_span_jsonl(line, timeline);
      line.push_back('\n');
      stream_->write(line.data(), static_cast<std::streamsize>(line.size()));
    }
  }

  Entry entry;
  entry.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  const bool slow = timeline.total_seconds >= config_.slow_threshold_seconds;
  entry.timeline = std::move(timeline);

  Shard& shard = shards_[entry.seq & shard_mask_];
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (slow) {
    if (shard.slow.size() >= slow_per_shard_) {
      shard.slow.erase(shard.slow.begin());
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    shard.slow.push_back(std::move(entry));
    return;
  }
  if (shard.recent.size() < recent_per_shard_) {
    shard.recent.push_back(std::move(entry));
  } else {
    shard.recent[shard.next_recent] = std::move(entry);
    shard.next_recent = (shard.next_recent + 1) % recent_per_shard_;
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<SpanTimeline> FlightRecorder::snapshot() const {
  std::vector<Entry> entries;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    entries.insert(entries.end(), shard.recent.begin(), shard.recent.end());
    entries.insert(entries.end(), shard.slow.begin(), shard.slow.end());
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
  std::vector<SpanTimeline> out;
  out.reserve(entries.size());
  for (Entry& entry : entries) out.push_back(std::move(entry.timeline));
  return out;
}

std::size_t FlightRecorder::recorded() const {
  return seq_.load(std::memory_order_relaxed);
}

std::size_t FlightRecorder::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

void FlightRecorder::attach_stream(std::ostream* os) {
  std::lock_guard<std::mutex> lock(stream_mutex_);
  stream_ = os;
}

void FlightRecorder::flush_stream() {
  std::lock_guard<std::mutex> lock(stream_mutex_);
  if (stream_ != nullptr) stream_->flush();
}

std::string render_debug_requests(const FlightRecorder& recorder,
                                  std::size_t max_bytes) {
  std::vector<SpanTimeline> timelines = recorder.snapshot();
  std::string out;
  out.reserve(std::min<std::size_t>(max_bytes, 64 * 1024));
  out += "{\"recorded\":";
  append_u64(out, recorder.recorded());
  out += ",\"dropped\":";
  append_u64(out, recorder.dropped());
  out += ",\"retained\":";
  append_u64(out, timelines.size());

  // Newest first, whole timelines only, hard byte budget: an operator
  // hitting /debug/requests during an incident wants the fresh tail,
  // not a 100 MB dump.
  std::string body;
  std::size_t returned = 0;
  for (auto it = timelines.rbegin(); it != timelines.rend(); ++it) {
    std::string one;
    append_span_jsonl(one, *it);
    // +64 leaves room for the envelope's closing bookkeeping.
    if (out.size() + body.size() + one.size() + 64 > max_bytes) break;
    if (!body.empty()) body.push_back(',');
    body += one;
    ++returned;
  }
  out += ",\"returned\":";
  append_u64(out, returned);
  out += ",\"requests\":[";
  out += body;
  out += "]}";
  return out;
}

}  // namespace match::obs
