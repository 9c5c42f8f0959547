#include "obs/prometheus.hpp"

#include <cmath>
#include <cstdint>

#include "obs/json.hpp"

namespace match::obs {
namespace {

bool valid_name_char(char c, bool first) {
  const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
  const bool digit = c >= '0' && c <= '9';
  if (alpha || c == '_' || c == ':') return true;
  return digit && !first;
}

// Shortest round-trip decimal; Prometheus accepts scientific notation
// and the special tokens +Inf / -Inf / NaN.
void append_value(std::string& out, double value) {
  if (std::isinf(value)) {
    out += value > 0 ? "+Inf" : "-Inf";
    return;
  }
  if (std::isnan(value)) {
    out += "NaN";
    return;
  }
  append_double(out, value);
}

void append_value(std::string& out, std::uint64_t value) {
  append_u64(out, value);
}

/// Shared label block rendered once per snapshot: `{job="x",host="y"}`
/// or empty when no labels are configured.
std::string render_label_block(const std::map<std::string, std::string>& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += sanitize_metric_name(name);
    out += "=\"";
    out += escape_label_value(value);
    out.push_back('"');
  }
  out.push_back('}');
  return out;
}

class Renderer {
 public:
  Renderer(std::string& out, const PrometheusOptions& options)
      : out_(out),
        prefix_(options.prefix.empty()
                    ? std::string()
                    : sanitize_metric_name(options.prefix) + "_"),
        labels_(render_label_block(options.labels)) {}

  void counter(const std::string& name, std::uint64_t value) {
    const std::string family = prefix_ + sanitize_metric_name(name);
    type_line(family, "counter");
    sample(family, labels_, value);
  }

  void gauge(const std::string& name, double value) {
    const std::string family = prefix_ + sanitize_metric_name(name);
    type_line(family, "gauge");
    sample(family, labels_, value);
  }

  void histogram(const std::string& name, const HistogramStats& stats) {
    const std::string family = prefix_ + sanitize_metric_name(name);
    type_line(family, "histogram");
    // Cumulative buckets.  Empty buckets between populated ones add no
    // information (the series is cumulative), so only emit a bucket when
    // the cumulative count changes — plus the mandatory +Inf bucket.
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i + 1 < stats.buckets.size(); ++i) {
      if (stats.buckets[i] == 0) continue;
      cumulative += stats.buckets[i];
      std::string le;
      append_value(le, Histogram::bucket_upper(i));
      sample(family + "_bucket", bucket_labels(le), cumulative);
    }
    sample(family + "_bucket", bucket_labels("+Inf"), stats.count);
    sample(family + "_sum", labels_, stats.sum);
    sample(family + "_count", labels_, stats.count);
    // Quantiles as sibling gauges (a histogram family may not carry
    // `quantile`-labelled samples).
    quantile_gauge(family, "p50", stats.p50);
    quantile_gauge(family, "p90", stats.p90);
    quantile_gauge(family, "p99", stats.p99);
  }

 private:
  void type_line(const std::string& family, const char* type) {
    out_ += "# TYPE ";
    out_ += family;
    out_.push_back(' ');
    out_ += type;
    out_.push_back('\n');
  }

  template <typename V>
  void sample(const std::string& series, const std::string& label_block,
              V value) {
    out_ += series;
    out_ += label_block;
    out_.push_back(' ');
    append_value(out_, value);
    out_.push_back('\n');
  }

  /// The shared labels with `le="<upper>"` appended.
  std::string bucket_labels(std::string_view le) const {
    std::string block;
    if (labels_.empty()) {
      block = "{le=\"";
    } else {
      block = labels_.substr(0, labels_.size() - 1);  // drop the '}'
      block += ",le=\"";
    }
    block += escape_label_value(le);
    block += "\"}";
    return block;
  }

  void quantile_gauge(const std::string& family, const char* which,
                      double value) {
    const std::string series = family + "_" + which;
    type_line(series, "gauge");
    sample(series, labels_, value);
  }

  std::string& out_;
  std::string prefix_;
  std::string labels_;
};

}  // namespace

std::string sanitize_metric_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (name.empty()) return "_";
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (valid_name_char(c, /*first=*/i == 0)) {
      out.push_back(c);
    } else if (i == 0 && c >= '0' && c <= '9') {
      out.push_back('_');
      out.push_back(c);
    } else {
      out.push_back('_');
    }
  }
  return out;
}

std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void render_prometheus(std::string& out, const MetricsSnapshot& snapshot,
                       const PrometheusOptions& options) {
  Renderer r(out, options);
  for (const auto& [name, value] : snapshot.counters) r.counter(name, value);
  for (const auto& [name, value] : snapshot.gauges) r.gauge(name, value);
  for (const auto& [name, stats] : snapshot.histograms) r.histogram(name, stats);
}

std::string to_prometheus(const MetricsSnapshot& snapshot,
                          const PrometheusOptions& options) {
  std::string out;
  out.reserve(4096);
  render_prometheus(out, snapshot, options);
  return out;
}

}  // namespace match::obs
