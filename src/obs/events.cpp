#include "obs/events.hpp"

#include <array>
#include <ostream>
#include <stdexcept>

#include "obs/json.hpp"

namespace match::obs {
namespace {

struct KindName {
  EventKind kind;
  const char* name;
};

constexpr std::array<KindName, 6> kKindNames{{
    {EventKind::kRunStart, "run_start"},
    {EventKind::kIteration, "iteration"},
    {EventKind::kPhase, "phase"},
    {EventKind::kService, "service"},
    {EventKind::kFallbackDraw, "fallback_draw"},
    {EventKind::kRunEnd, "run_end"},
}};

}  // namespace

const char* to_string(EventKind kind) {
  for (const auto& kn : kKindNames) {
    if (kn.kind == kind) return kn.name;
  }
  return "unknown";
}

EventKind parse_event_kind(std::string_view name) {
  for (const auto& kn : kKindNames) {
    if (name == kn.name) return kn.kind;
  }
  throw std::invalid_argument("obs: unknown event kind '" + std::string(name) + "'");
}

Event Event::run_start(std::uint64_t run_id, std::string_view solver) {
  Event e;
  e.kind = EventKind::kRunStart;
  e.run_id = run_id;
  e.solver = solver;
  return e;
}

Event Event::run_end(std::uint64_t run_id, std::string_view solver,
                     std::uint64_t iterations, double best_cost,
                     double seconds) {
  Event e;
  e.kind = EventKind::kRunEnd;
  e.run_id = run_id;
  e.solver = solver;
  e.iteration = iterations;
  e.best_so_far = best_cost;
  e.seconds = seconds;
  return e;
}

Event Event::iteration_event(std::uint64_t run_id, std::string_view solver,
                             std::uint64_t iteration, double gamma,
                             double iter_best, double best_so_far,
                             double elite_spread, double row_max_mean,
                             double entropy, std::uint64_t elite_count) {
  Event e;
  e.kind = EventKind::kIteration;
  e.run_id = run_id;
  e.solver = solver;
  e.iteration = iteration;
  e.gamma = gamma;
  e.iter_best = iter_best;
  e.best_so_far = best_so_far;
  e.elite_spread = elite_spread;
  e.row_max_mean = row_max_mean;
  e.entropy = entropy;
  e.elite_count = elite_count;
  return e;
}

Event Event::phase_event(std::uint64_t run_id, std::string_view solver,
                         std::uint64_t iteration, std::string_view phase,
                         double seconds) {
  Event e;
  e.kind = EventKind::kPhase;
  e.run_id = run_id;
  e.solver = solver;
  e.iteration = iteration;
  e.phase = phase;
  e.seconds = seconds;
  return e;
}

Event Event::service_event(std::uint64_t run_id, std::string_view solver,
                           std::string_view action, double seconds) {
  Event e;
  e.kind = EventKind::kService;
  e.run_id = run_id;
  e.solver = solver;
  e.phase = action;
  e.seconds = seconds;
  return e;
}

Event Event::fallback_draw(std::uint64_t run_id, std::string_view solver) {
  Event e;
  e.kind = EventKind::kFallbackDraw;
  e.run_id = run_id;
  e.solver = solver;
  return e;
}

std::string to_jsonl(const Event& event) {
  std::string out;
  out.reserve(192);
  append_jsonl(out, event);
  return out;
}

void append_jsonl(std::string& out, const Event& event) {
  out += "{\"kind\":";
  append_json_string(out, to_string(event.kind));
  out += ",\"run\":";
  append_u64(out, event.run_id);
  if (!event.solver.empty()) {
    out += ",\"solver\":";
    append_json_string(out, event.solver);
  }
  switch (event.kind) {
    case EventKind::kRunStart:
      break;
    case EventKind::kIteration:
      out += ",\"iter\":";
      append_u64(out, event.iteration);
      out += ",\"gamma\":";
      append_double(out, event.gamma);
      out += ",\"iter_best\":";
      append_double(out, event.iter_best);
      out += ",\"best\":";
      append_double(out, event.best_so_far);
      out += ",\"spread\":";
      append_double(out, event.elite_spread);
      out += ",\"row_max_mean\":";
      append_double(out, event.row_max_mean);
      out += ",\"entropy\":";
      append_double(out, event.entropy);
      out += ",\"elite\":";
      append_u64(out, event.elite_count);
      break;
    case EventKind::kPhase:
      out += ",\"iter\":";
      append_u64(out, event.iteration);
      out += ",\"phase\":";
      append_json_string(out, event.phase);
      out += ",\"seconds\":";
      append_double(out, event.seconds);
      break;
    case EventKind::kService:
      out += ",\"phase\":";
      append_json_string(out, event.phase);
      out += ",\"seconds\":";
      append_double(out, event.seconds);
      break;
    case EventKind::kFallbackDraw:
      break;
    case EventKind::kRunEnd:
      out += ",\"iter\":";
      append_u64(out, event.iteration);
      out += ",\"best\":";
      append_double(out, event.best_so_far);
      out += ",\"seconds\":";
      append_double(out, event.seconds);
      break;
  }
  out.push_back('}');
}

Event from_jsonl(std::string_view line) {
  const JsonValue doc = parse_json(line);
  Event e;
  bool saw_kind = false;
  // Members in document order; unknown keys are skipped (schema growth).
  for (const auto& [key, v] : doc.object) {
    if (key == "kind") {
      e.kind = parse_event_kind(v.as_string());
      saw_kind = true;
    } else if (key == "solver") {
      e.solver = v.as_string();
    } else if (key == "phase") {
      e.phase = v.as_string();
    } else if (key == "run") {
      e.run_id = v.as_u64();
    } else if (key == "iter") {
      e.iteration = v.as_u64();
    } else if (key == "elite") {
      e.elite_count = v.as_u64();
    } else if (key == "gamma") {
      e.gamma = v.as_double();
    } else if (key == "iter_best") {
      e.iter_best = v.as_double();
    } else if (key == "best") {
      e.best_so_far = v.as_double();
    } else if (key == "spread") {
      e.elite_spread = v.as_double();
    } else if (key == "row_max_mean") {
      e.row_max_mean = v.as_double();
    } else if (key == "entropy") {
      e.entropy = v.as_double();
    } else if (key == "seconds") {
      e.seconds = v.as_double();
    }
  }
  if (!saw_kind) throw std::invalid_argument("obs: event line has no kind");
  return e;
}

void JsonlSink::emit(const Event& event) {
  // Serialization happens outside the lock, into a thread-reused buffer:
  // no per-event allocation, and contention is limited to the write.
  thread_local std::string line;
  line.clear();
  append_jsonl(line, event);
  line.push_back('\n');
  std::lock_guard<std::mutex> lock(mutex_);
  os_->write(line.data(), static_cast<std::streamsize>(line.size()));
  ++emitted_;
}

void JsonlSink::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  os_->flush();
}

std::size_t JsonlSink::emitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return emitted_;
}

RingBufferSink::RingBufferSink(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void RingBufferSink::emit(const Event& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[next_] = event;
    next_ = (next_ + 1) % capacity_;
  }
}

std::vector<Event> RingBufferSink::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Event> out;
  out.reserve(ring_.size());
  // `next_` points at the oldest element once the ring is full.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::size_t RingBufferSink::total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

std::size_t RingBufferSink::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_ - ring_.size();
}

}  // namespace match::obs
