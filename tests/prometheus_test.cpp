// Tests of the Prometheus exposition pipeline: metric-name
// sanitization, label-value escaping, and the text renderer's histogram
// encoding (cumulative buckets, +Inf, _sum/_count, quantile gauges).
// The HTTP routes that serve it live on net::MatchServer
// (tests/net_http_test.cpp).

#include <gtest/gtest.h>

#include <charconv>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"

namespace match::obs {
namespace {

// ------------------------------------------------------------ sanitization

TEST(Sanitize, DotsAndHostileCharactersBecomeUnderscores) {
  EXPECT_EQ(sanitize_metric_name("service.cache_hits"), "service_cache_hits");
  EXPECT_EQ(sanitize_metric_name("match.phase.draw_seconds"),
            "match_phase_draw_seconds");
  EXPECT_EQ(sanitize_metric_name("has spaces-and/slash"),
            "has_spaces_and_slash");
  EXPECT_EQ(sanitize_metric_name("weird\"quote\nnewline"),
            "weird_quote_newline");
}

TEST(Sanitize, ColonsAndUnderscoresSurvive) {
  EXPECT_EQ(sanitize_metric_name("ns:sub_total"), "ns:sub_total");
}

TEST(Sanitize, LeadingDigitGainsUnderscorePrefix) {
  EXPECT_EQ(sanitize_metric_name("5xx_responses"), "_5xx_responses");
  // Digits past the first position are fine as-is.
  EXPECT_EQ(sanitize_metric_name("http2xx"), "http2xx");
}

TEST(Sanitize, EmptyNameRendersAsUnderscore) {
  EXPECT_EQ(sanitize_metric_name(""), "_");
}

TEST(Escape, BackslashQuoteAndNewline) {
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("back\\slash"), "back\\\\slash");
  EXPECT_EQ(escape_label_value("dou\"ble"), "dou\\\"ble");
  EXPECT_EQ(escape_label_value("new\nline"), "new\\nline");
  // All three at once, in pathological order.
  EXPECT_EQ(escape_label_value("\\\"\n"), "\\\\\\\"\\n");
}

// ---------------------------------------------------------------- renderer

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

TEST(Render, CounterAndGaugeFamilies) {
  MetricsSnapshot snap;
  snap.counters["service.cache_hits"] = 42;
  snap.gauges["queue.depth"] = 2.5;
  const std::string text = to_prometheus(snap);
  const auto lines = lines_of(text);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "# TYPE service_cache_hits counter");
  EXPECT_EQ(lines[1], "service_cache_hits 42");
  EXPECT_EQ(lines[2], "# TYPE queue_depth gauge");
  EXPECT_EQ(lines[3], "queue_depth 2.5");
}

TEST(Render, PrefixAndGlobalLabels) {
  MetricsSnapshot snap;
  snap.counters["hits"] = 7;
  PrometheusOptions options;
  options.prefix = "match";
  options.labels = {{"job", "ser\"ver"}, {"host", "a\\b"}};
  const std::string text = to_prometheus(snap, options);
  EXPECT_NE(text.find("# TYPE match_hits counter\n"), std::string::npos);
  EXPECT_NE(text.find("match_hits{host=\"a\\\\b\",job=\"ser\\\"ver\"} 7\n"),
            std::string::npos);
}

TEST(Render, HistogramBucketsAreCumulativeAndEndAtInf) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("phase.draw_seconds");
  for (int i = 0; i < 90; ++i) h.observe(3e-6);    // bucket (2e-6, 4e-6]
  for (int i = 0; i < 10; ++i) h.observe(1.5e-3);  // bucket 11
  const std::string text = to_prometheus(registry.snapshot());

  // Two populated buckets → two finite cumulative samples, then +Inf.
  EXPECT_NE(text.find("# TYPE phase_draw_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("phase_draw_seconds_bucket{le=\"4e-06\"} 90\n"),
            std::string::npos);
  // The slow bucket's `le` is whatever shortest form bucket_upper(11)
  // takes — format it through to_chars rather than hardcoding.
  char le_buf[32];
  auto [le_end, le_ec] =
      std::to_chars(le_buf, le_buf + sizeof(le_buf), Histogram::bucket_upper(11));
  ASSERT_EQ(le_ec, std::errc{});
  const std::string slow_le(le_buf, le_end);
  EXPECT_NE(text.find("phase_draw_seconds_bucket{le=\"" + slow_le + "\"} 100\n"),
            std::string::npos);
  EXPECT_NE(text.find("phase_draw_seconds_bucket{le=\"+Inf\"} 100\n"),
            std::string::npos);
  EXPECT_NE(text.find("phase_draw_seconds_count 100\n"), std::string::npos);

  // Quantiles render as sibling gauges, not `quantile` labels.
  EXPECT_NE(text.find("# TYPE phase_draw_seconds_p50 gauge"),
            std::string::npos);
  EXPECT_NE(text.find("phase_draw_seconds_p50 4e-06\n"), std::string::npos);
  EXPECT_EQ(text.find("quantile="), std::string::npos);

  // The +Inf bucket equals _count: the format's invariant.
  const auto lines = lines_of(text);
  std::string inf_value, count_value;
  for (const auto& line : lines) {
    if (line.rfind("phase_draw_seconds_bucket{le=\"+Inf\"}", 0) == 0) {
      inf_value = line.substr(line.rfind(' ') + 1);
    }
    if (line.rfind("phase_draw_seconds_count", 0) == 0) {
      count_value = line.substr(line.rfind(' ') + 1);
    }
  }
  EXPECT_EQ(inf_value, count_value);
}

TEST(Render, HistogramBucketLabelsSpliceIntoGlobalLabels) {
  MetricsRegistry registry;
  registry.histogram("lat").observe(3e-6);
  PrometheusOptions options;
  options.labels = {{"job", "x"}};
  const std::string text = to_prometheus(registry.snapshot(), options);
  EXPECT_NE(text.find("lat_bucket{job=\"x\",le=\"4e-06\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_bucket{job=\"x\",le=\"+Inf\"} 1\n"),
            std::string::npos);
}

TEST(Render, NonFiniteGaugesUsePrometheusTokens) {
  MetricsSnapshot snap;
  snap.gauges["pos"] = std::numeric_limits<double>::infinity();
  snap.gauges["neg"] = -std::numeric_limits<double>::infinity();
  const std::string text = to_prometheus(snap);
  EXPECT_NE(text.find("neg -Inf\n"), std::string::npos);
  EXPECT_NE(text.find("pos +Inf\n"), std::string::npos);
}

}  // namespace
}  // namespace match::obs
