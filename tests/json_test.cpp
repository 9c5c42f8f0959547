// The obs layer's one JSON codec (obs/json.hpp): the reader's value
// model and nesting cap, the exact bytes the three writers emit (event
// lines, span timelines, bench reports — pinned against checked-in
// literals), and a fixed-seed mutation fuzz run over every reader that
// ASan builds check for reads past the document.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz_mutate.hpp"
#include "obs/bench_report.hpp"
#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/spans.hpp"
#include "rng/rng.hpp"

namespace {

using namespace match;
using namespace match::obs;

// ------------------------------------------------------------- reader

TEST(JsonReader, ReadsEveryValueKind) {
  const JsonValue doc = parse_json(
      " {\"s\":\"a\\u0001\\/b\",\"n\":-2.5,\"t\":true,\"f\":false,"
      "\"z\":null,\"a\":[1,[],{}],\"o\":{\"k\":\"v\"}}\r\n");
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  ASSERT_EQ(doc.object.size(), 7u);
  EXPECT_EQ(doc.find("s")->as_string(), std::string("a\x01/b"));
  EXPECT_EQ(doc.find("n")->as_double(), -2.5);
  EXPECT_EQ(doc.find("t")->kind, JsonValue::Kind::kBool);
  EXPECT_TRUE(doc.find("t")->boolean);
  EXPECT_FALSE(doc.find("f")->boolean);
  EXPECT_EQ(doc.find("z")->kind, JsonValue::Kind::kNull);
  ASSERT_EQ(doc.find("a")->array.size(), 3u);
  EXPECT_EQ(doc.find("a")->array[2].kind, JsonValue::Kind::kObject);
  EXPECT_EQ(doc.find("o")->find("k")->as_string(), "v");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonReader, DoublesRoundTripExactlyIncludingNonFinite) {
  const double values[] = {0.1,
                           1.0 / 3.0,
                           -0.0,
                           5e-324,  // smallest denormal
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  for (const double d : values) {
    std::string out;
    append_double(out, d);
    const double back = parse_json(out).as_double();
    EXPECT_EQ(back, d) << out;
    EXPECT_EQ(std::signbit(back), std::signbit(d)) << out;
  }
  std::string nan_text;
  append_double(nan_text, std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(std::isnan(parse_json(nan_text).as_double())) << nan_text;
}

TEST(JsonReader, U64IsExactBeyond2To53AndRejectsNegativeOrFractional) {
  EXPECT_EQ(parse_json("18446744073709551615").as_u64(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_json("9007199254740993").as_u64(), (1ull << 53) + 1);
  EXPECT_THROW(parse_json("-1").as_u64(), std::invalid_argument);
  EXPECT_THROW(parse_json("1.5").as_u64(), std::invalid_argument);
  EXPECT_THROW(parse_json("1e3").as_u64(), std::invalid_argument);
  EXPECT_THROW(parse_json("18446744073709551616").as_u64(),
               std::invalid_argument);
  EXPECT_THROW(parse_json("\"7\"").as_u64(), std::invalid_argument);
}

TEST(JsonReader, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", " ", "{", "[1,", "{\"a\"}", "{\"a\":}", "{a:1}", "[1 2]", "tru",
        "nul", "\"open", "\"\\q\"", "\"\\u00g1\"", "1 2", "{} x", "+1",
        "--1", "[1,]"}) {
    EXPECT_THROW(parse_json(bad), std::invalid_argument) << bad;
  }
}

TEST(JsonReader, NestingCapIs64Levels) {
  const std::string ok = std::string(kMaxJsonDepth, '[') +
                         std::string(kMaxJsonDepth, ']');
  EXPECT_NO_THROW(parse_json(ok));
  const std::string deep = std::string(kMaxJsonDepth + 1, '[') +
                           std::string(kMaxJsonDepth + 1, ']');
  EXPECT_THROW(parse_json(deep), std::invalid_argument);
}

// ------------------------------------------------------------- writers

// Checked-in literal output of every writer: a change to the bytes
// written fails here, not in a downstream consumer of the files.
constexpr std::string_view kEventLines[] = {
    R"json({"kind":"run_start","run":1,"solver":"ce"})json",
    R"json({"kind":"iteration","run":7,"solver":"match","iter":12,"gamma":0.3333333333333333,"iter_best":0.1,"best":1e-300,"spread":-0,"row_max_mean":0.9999999999999999,"entropy":5.321928094887363,"elite":17})json",
    R"json({"kind":"phase","run":2,"solver":"match","iter":3,"phase":"draw","seconds":0.14285714285714285})json",
    R"json({"kind":"service","run":4,"solver":"so\"lv\\er\n","phase":"tab\there\u0001","seconds":2.5e-05})json",
    R"json({"kind":"fallback_draw","run":5,"solver":"hill_climb"})json",
    R"json({"kind":"run_end","run":18446744073709551615,"solver":"island","iter":40,"best":inf,"seconds":5e-324})json",
};

constexpr std::string_view kSpanLines[] = {
    R"json({"request":42,"outcome":"net.served","solver":"match","total":0.5,"spans":[{"stage":"accept","start":0,"end":1e-06},{"stage":"admission","start":2e-06,"end":3.5e-06,"outcome":"admitted"},{"stage":"solve","start":0.1,"end":0.4121874999999997,"outcome":"match"}]})json",
    R"json({"request":0,"outcome":"quo\"te","total":-0,"spans":[]})json",
};

constexpr std::string_view kBenchReportJson =
    R"json({"name":"golden","git_sha":"0123abcd4567","schema_version":1,"config":{"n":"30","sizes":"16,32\t64"},"cases":[{"name":"no observer","wall_seconds":0.41,"metrics":{"best_cost":1234.5,"overhead_pct":-0}},{"name":"empty","wall_seconds":0,"metrics":{}}],"counters":{"big":9007199254740993,"service.completed":160},"gauges":{"gamma":2.5,"nan":nan},"histograms":{"service.latency_seconds":{"count":3,"sum":1.25,"mean":0.4166666666666667,"p50":0.25,"p90":0.5,"p99":0.5}}})json";

constexpr std::string_view kEmptyBenchReportJson =
    R"json({"name":"","git_sha":"","schema_version":1,"config":{},"cases":[],"counters":{},"gauges":{},"histograms":{}})json";

std::vector<Event> golden_events() {
  return {
      Event::run_start(1, "ce"),
      Event::iteration_event(7, "match", 12, 1.0 / 3.0, 0.1, 1e-300, -0.0,
                             0.9999999999999999, 5.321928094887363, 17),
      Event::phase_event(2, "match", 3, "draw", 1.0 / 7.0),
      Event::service_event(4, "so\"lv\\er\n", "tab\there\x01", 2.5e-5),
      Event::fallback_draw(5, "hill_climb"),
      Event::run_end(std::numeric_limits<std::uint64_t>::max(), "island", 40,
                     std::numeric_limits<double>::infinity(), 5e-324),
  };
}

std::vector<SpanTimeline> golden_timelines() {
  SpanTimeline tl;
  tl.start(42, SpanClock::time_point{});
  tl.stamp_seconds(SpanStage::kAccept, 0.0, 1e-6);
  tl.stamp_seconds(SpanStage::kAdmission, 2e-6, 3.5e-6, "admitted");
  tl.stamp_seconds(SpanStage::kSolve, 0.1, 0.4121874999999997, "match");
  tl.outcome = "net.served";
  tl.solver = "match";
  tl.total_seconds = 0.5;
  SpanTimeline bare;
  bare.start(0, SpanClock::time_point{});
  bare.outcome = "quo\"te";
  bare.total_seconds = -0.0;
  return {tl, bare};
}

bench::BenchReport golden_report() {
  bench::BenchReport r;
  r.name = "golden";
  r.git_sha = "0123abcd4567";
  r.config = {{"n", "30"}, {"sizes", "16,32\t64"}};
  r.cases.push_back({"no observer", 0.41,
                     {{"best_cost", 1234.5}, {"overhead_pct", -0.0}}});
  r.cases.push_back({"empty", 0.0, {}});
  r.counters = {{"service.completed", 160}, {"big", (1ull << 53) + 1}};
  r.gauges = {{"gamma", 2.5},
              {"nan", std::numeric_limits<double>::quiet_NaN()}};
  HistogramStats h;
  h.count = 3;
  h.sum = 1.25;
  h.mean = 1.25 / 3;
  h.p50 = 0.25;
  h.p90 = 0.5;
  h.p99 = 0.5;
  r.histograms = {{"service.latency_seconds", h}};
  return r;
}

TEST(JsonWriter, EventLinesMatchCheckedInBytes) {
  const std::vector<Event> events = golden_events();
  ASSERT_EQ(events.size(), std::size(kEventLines));
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(to_jsonl(events[i]), kEventLines[i]);
    // And the reader takes each line back to the same event.
    EXPECT_EQ(to_jsonl(from_jsonl(kEventLines[i])), kEventLines[i]);
  }
}

TEST(JsonWriter, SpanLinesMatchCheckedInBytes) {
  const std::vector<SpanTimeline> timelines = golden_timelines();
  ASSERT_EQ(timelines.size(), std::size(kSpanLines));
  for (std::size_t i = 0; i < timelines.size(); ++i) {
    EXPECT_EQ(to_span_jsonl(timelines[i]), kSpanLines[i]);
    EXPECT_EQ(to_span_jsonl(from_span_jsonl(kSpanLines[i])), kSpanLines[i]);
  }
}

TEST(JsonWriter, BenchReportMatchesCheckedInBytes) {
  EXPECT_EQ(golden_report().to_json(), kBenchReportJson);
  EXPECT_EQ(bench::BenchReport::from_json(kBenchReportJson).to_json(),
            kBenchReportJson);
  EXPECT_EQ(bench::BenchReport().to_json(), kEmptyBenchReportJson);
}

// --------------------------------------------------------------- fuzz

/// Runs `parse` and reports whether it returned (true) or threw
/// `std::invalid_argument` (false); any other exception escapes and
/// fails the test.
template <typename Parse>
bool parses(Parse parse) {
  try {
    parse();
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

/// Every reader of the codec over one input: the bare parser and the
/// three key-to-field mappings.  Each entry counts parsed inputs.
struct ReaderOutcomes {
  std::size_t json = 0, event = 0, span = 0, bench = 0;

  void run(std::string_view input) {
    json += parses([&] { (void)parse_json(input); });
    event += parses([&] { (void)from_jsonl(input); });
    span += parses([&] { (void)from_span_jsonl(input); });
    bench += parses([&] { (void)bench::BenchReport::from_json(input); });
  }
};

TEST(ObsJsonFuzz, MutatedDocumentsParseOrThrowInvalidArgument) {
  // The checked-in corpus: one event line of every kind, span timelines
  // and bench reports, then malformed documents — each unmutated
  // malformed one is rejected by the bare parser.
  std::vector<std::string> valid(std::begin(kEventLines),
                                 std::end(kEventLines));
  valid.insert(valid.end(), std::begin(kSpanLines), std::end(kSpanLines));
  valid.emplace_back(kBenchReportJson);
  valid.emplace_back(kEmptyBenchReportJson);
  valid.emplace_back(
      R"json({"kind":"run_end","run":3,"future":{"deep":[1,{"k":"}]"}]},"flags":[true,false,null]})json");
  const std::vector<std::string> malformed = {
      "",
      "not json",
      R"json({"kind":"run_end","run":1,"best")json",
      R"json({"request":44,"spans":[{"st)json",
      R"json({"request":1} trailing)json",
      R"json({"kind":"run_start"}{"kind":"run_end"})json",
      R"json({"name":"x","cases":[{"name":"a","wall_seconds":1e})json",
      R"json(["\u00zz"])json",
      R"json({"a":tru})json",
      "{\"a\":\"\x01\x02\xff binary\"",
      std::string(80, '[') + std::string(80, ']'),
  };
  for (const std::string& doc : valid) {
    EXPECT_NO_THROW(parse_json(doc)) << doc;
  }
  for (const std::string_view line : kEventLines) {
    EXPECT_NO_THROW(from_jsonl(line)) << line;
  }
  for (const std::string_view line : kSpanLines) {
    EXPECT_NO_THROW(from_span_jsonl(line)) << line;
  }
  EXPECT_NO_THROW(bench::BenchReport::from_json(kBenchReportJson));
  for (const std::string& doc : malformed) {
    EXPECT_THROW(parse_json(doc), std::invalid_argument) << doc;
  }

  std::vector<std::string> corpus = valid;
  corpus.insert(corpus.end(), malformed.begin(), malformed.end());
  static constexpr std::string_view kTokens[] = {
      "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u00", "true", "null",
      "nan", "-inf", "-0", "1e308", "18446744073709551616", "\"kind\":",
      "\"request\":", "\"stage\":\"solve\"", "\"spans\":[", "\r\n"};
  rng::Rng rng(20261021);
  ReaderOutcomes outcomes;
  constexpr std::size_t kMutations = 10000;
  for (std::size_t i = 0; i < kMutations; ++i) {
    const std::string input =
        fuzz::mutate(corpus[i % corpus.size()], rng, kTokens);
    // An exactly sized heap copy: a read past the document is a heap
    // overflow under ASan, not a read of std::string's spare capacity.
    const std::unique_ptr<char[]> exact(new char[input.size()]);
    std::copy(input.begin(), input.end(), exact.get());
    outcomes.run(std::string_view(exact.get(), input.size()));
  }
  // The mutations reach both outcomes of every reader.
  for (const std::size_t parsed :
       {outcomes.json, outcomes.event, outcomes.span, outcomes.bench}) {
    EXPECT_GT(parsed, 0u);
    EXPECT_LT(parsed, kMutations);
  }
}

TEST(ObsJsonFuzz, MegabyteOfOpenBracketsThrows) {
  for (const std::size_t size : {std::size_t{100000}, std::size_t{1} << 20}) {
    const std::string input(size, '[');
    ReaderOutcomes outcomes;
    outcomes.run(input);
    EXPECT_EQ(outcomes.json + outcomes.event + outcomes.span + outcomes.bench,
              0u)
        << size;
  }
}

TEST(ObsJsonFuzz, DeeplyRepeatedObjectKeyThrows) {
  std::string input;
  for (int i = 0; i < 200000; ++i) input += "{\"a\":";
  ReaderOutcomes outcomes;
  outcomes.run(input);
  input += "1";
  input.append(200000, '}');
  outcomes.run(input);  // well-formed, still too deep
  EXPECT_EQ(outcomes.json + outcomes.event + outcomes.span + outcomes.bench,
            0u);
}

}  // namespace
