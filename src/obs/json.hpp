#pragma once

// The one JSON codec of the obs layer.
//
// Every machine-readable artifact the obs layer writes goes through the
// writer half: event lines (obs/events.hpp), span timelines
// (obs/spans.hpp), bench reports (obs/bench_report.hpp) and the
// `/debug/requests` envelope.  Doubles use the shortest decimal form that
// parses back to the identical value (std::to_chars), so a trace or
// report read back from disk compares equal field-for-field.  Non-finite
// doubles come out as the `inf` / `-inf` / `nan` tokens to_chars writes —
// not strict JSON, but the reader below takes them back.
//
// Every reader goes through the other half: `parse_json` turns one
// document into a `JsonValue` tree, and each caller maps keys to fields
// (ignoring unknown keys, so the schemas may grow).  The parser is a
// recursive descent with a nesting cap, so hostile input — a torn line,
// a megabyte of `[` — ends in `std::invalid_argument`, never in a stack
// overflow.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace match::obs {

// ------------------------------------------------------------- writing

/// Shortest decimal form that parses back to the identical double.
void append_double(std::string& out, double value);

void append_u64(std::string& out, std::uint64_t value);

/// Quoted JSON string: `"` and `\` escaped, \n \t \r by name, other
/// control bytes as \u00xx; every other byte (UTF-8 included) verbatim.
void append_json_string(std::string& out, std::string_view s);

// ------------------------------------------------------------- reading

/// Documents nested deeper than this are rejected.  The deepest one the
/// writers emit (a bench report's histogram stats) nests 3 levels.
inline constexpr std::size_t kMaxJsonDepth = 64;

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// Exact view of an integral, non-negative number token, so u64
  /// fields beyond 2^53 round-trip; `is_uint` says whether it is valid.
  std::uint64_t uinteger = 0;
  bool is_uint = false;
  std::string str;
  std::vector<std::pair<std::string, JsonValue>> object;  ///< document order
  std::vector<JsonValue> array;

  /// First member named `key`; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  // Typed accessors; each throws `std::invalid_argument` on a mismatch.
  double as_double() const;
  /// Rejects negative, fractional and out-of-range numbers.
  std::uint64_t as_u64() const;
  const std::string& as_string() const;
};

/// Parses one whole document (leading/trailing whitespace allowed,
/// nothing else after the value).  Reads objects, arrays, strings,
/// numbers (including the non-finite tokens `append_double` writes),
/// `true`, `false` and `null`.  Throws `std::invalid_argument` on
/// malformed input or nesting deeper than `kMaxJsonDepth`.
JsonValue parse_json(std::string_view document);

/// Line counts of a lenient JSONL read.
struct JsonlLineCounts {
  std::size_t total_lines = 0;    ///< non-blank lines seen
  std::size_t skipped_lines = 0;  ///< lines `parse_line` threw on
};

/// The skip-and-count loop behind the lenient trace readers: strips a
/// trailing CR (CRLF files), skips blank lines, hands every other line
/// to `parse_line`, and counts the lines it throws on instead of
/// propagating — a server killed mid-write leaves a torn last line.
JsonlLineCounts for_each_jsonl_line(
    std::istream& is, const std::function<void(std::string_view)>& parse_line);

}  // namespace match::obs
