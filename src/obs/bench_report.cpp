#include "obs/bench_report.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"

namespace match::bench {

using obs::append_double;
using obs::append_json_string;
using obs::append_u64;
using obs::JsonValue;

void BenchReport::attach_snapshot(const obs::MetricsSnapshot& snapshot) {
  counters = snapshot.counters;
  gauges = snapshot.gauges;
  histograms = snapshot.histograms;
  // Bucket arrays stay out of the report (see header); drop them so two
  // reports with identical stats compare equal after a round trip.
  for (auto& [hist_name, stats] : histograms) { (void)hist_name; stats.buckets.clear(); }
}

std::string BenchReport::to_json() const {
  std::string out;
  out.reserve(2048);
  out += "{\"name\":";
  append_json_string(out, name);
  out += ",\"git_sha\":";
  append_json_string(out, git_sha);
  out += ",\"schema_version\":";
  append_u64(out, kSchemaVersion);

  out += ",\"config\":{";
  bool first = true;
  for (const auto& [key, value] : config) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, key);
    out.push_back(':');
    append_json_string(out, value);
  }
  out += "},\"cases\":[";
  first = true;
  for (const BenchCase& c : cases) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    append_json_string(out, c.name);
    out += ",\"wall_seconds\":";
    append_double(out, c.wall_seconds);
    out += ",\"metrics\":{";
    bool first_metric = true;
    for (const auto& [key, value] : c.metrics) {
      if (!first_metric) out.push_back(',');
      first_metric = false;
      append_json_string(out, key);
      out.push_back(':');
      append_double(out, value);
    }
    out += "}}";
  }
  out += "],\"counters\":{";
  first = true;
  for (const auto& [key, value] : counters) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, key);
    out.push_back(':');
    append_u64(out, value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [key, value] : gauges) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, key);
    out.push_back(':');
    append_double(out, value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [key, stats] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, key);
    out += ":{\"count\":";
    append_u64(out, stats.count);
    out += ",\"sum\":";
    append_double(out, stats.sum);
    out += ",\"mean\":";
    append_double(out, stats.mean);
    out += ",\"p50\":";
    append_double(out, stats.p50);
    out += ",\"p90\":";
    append_double(out, stats.p90);
    out += ",\"p99\":";
    append_double(out, stats.p99);
    out += "}";
  }
  out += "}}";
  return out;
}

BenchReport BenchReport::from_json(std::string_view json) {
  const JsonValue doc = obs::parse_json(json);
  if (doc.kind != JsonValue::Kind::kObject) {
    throw std::invalid_argument("bench json: document is not an object");
  }
  BenchReport report;
  if (const JsonValue* v = doc.find("name")) report.name = v->as_string();
  if (const JsonValue* v = doc.find("git_sha")) report.git_sha = v->as_string();
  if (const JsonValue* v = doc.find("config")) {
    for (const auto& [key, value] : v->object) {
      report.config[key] = value.as_string();
    }
  }
  if (const JsonValue* v = doc.find("cases")) {
    for (const JsonValue& entry : v->array) {
      BenchCase c;
      if (const JsonValue* f = entry.find("name")) c.name = f->as_string();
      if (const JsonValue* f = entry.find("wall_seconds")) {
        c.wall_seconds = f->as_double();
      }
      if (const JsonValue* f = entry.find("metrics")) {
        for (const auto& [key, value] : f->object) {
          c.metrics[key] = value.as_double();
        }
      }
      report.cases.push_back(std::move(c));
    }
  }
  if (const JsonValue* v = doc.find("counters")) {
    for (const auto& [key, value] : v->object) {
      report.counters[key] = value.as_u64();
    }
  }
  if (const JsonValue* v = doc.find("gauges")) {
    for (const auto& [key, value] : v->object) {
      report.gauges[key] = value.as_double();
    }
  }
  if (const JsonValue* v = doc.find("histograms")) {
    for (const auto& [key, value] : v->object) {
      obs::HistogramStats stats;
      if (const JsonValue* f = value.find("count")) stats.count = f->as_u64();
      if (const JsonValue* f = value.find("sum")) stats.sum = f->as_double();
      if (const JsonValue* f = value.find("mean")) stats.mean = f->as_double();
      if (const JsonValue* f = value.find("p50")) stats.p50 = f->as_double();
      if (const JsonValue* f = value.find("p90")) stats.p90 = f->as_double();
      if (const JsonValue* f = value.find("p99")) stats.p99 = f->as_double();
      report.histograms[key] = stats;
    }
  }
  return report;
}

std::string BenchReport::write(const std::string& dir) const {
  const std::string path = dir + "/BENCH_" + name + ".json";
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("bench: cannot write " + path);
  }
  out << to_json() << "\n";
  out.flush();
  if (!out) {
    throw std::runtime_error("bench: short write to " + path);
  }
  return path;
}

std::string current_git_sha() {
  if (const char* env = std::getenv("MATCH_GIT_SHA")) {
    if (*env != '\0') return env;
  }
  std::FILE* pipe = ::popen("git rev-parse --short=12 HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[64] = {};
  std::string sha;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) sha = buf;
  ::pclose(pipe);
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  for (char c : sha) {
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) return "unknown";
  }
  return sha.empty() ? "unknown" : sha;
}

}  // namespace match::bench
