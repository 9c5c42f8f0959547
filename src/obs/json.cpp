#include "obs/json.hpp"

#include <charconv>
#include <istream>
#include <stdexcept>
#include <system_error>

namespace match::obs {

void append_double(std::string& out, double value) {
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc{}) throw std::runtime_error("json: to_chars failed");
  out.append(buf, ptr);
}

void append_u64(std::string& out, std::uint64_t value) {
  char buf[24];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc{}) throw std::runtime_error("json: to_chars failed");
  out.append(buf, ptr);
}

void append_json_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          out += "\\u00";
          out.push_back(kHex[byte >> 4]);
          out.push_back(kHex[byte & 0xf]);
        } else {
          out.push_back(c);
        }
      }
    }
  }
  out.push_back('"');
}

namespace {

// Recursive descent over one document.  Numbers keep an exact u64 view
// when the token is integral, so counters beyond 2^53 round-trip.
class JsonParser {
 public:
  explicit JsonParser(std::string_view s) : s_(s) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::invalid_argument(std::string("json: ") + what);
  }
  char peek() const {
    if (pos_ >= s_.size()) fail("truncated document");
    return s_[pos_];
  }
  char next() {
    char c = peek();
    ++pos_;
    return c;
  }
  void expect(char c) {
    if (next() != c) fail("malformed document");
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool consume(std::string_view literal) {
    if (s_.substr(pos_).starts_with(literal)) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  // `depth` counts the containers enclosing the value being parsed.
  JsonValue parse_value(std::size_t depth) {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth == kMaxJsonDepth) fail("nesting too deep");
      return c == '{' ? parse_object(depth + 1) : parse_array(depth + 1);
    }
    JsonValue v;
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.str = parse_string();
    } else if (consume("true") || consume("false")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = c == 't';
    } else if (consume("null")) {
      v.kind = JsonValue::Kind::kNull;
    } else {
      v = parse_number();  // also "nan", which shares null's first letter
    }
    return v;
  }

  JsonValue parse_object(std::size_t depth) {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    // One allocation covers every object the writers emit (an event
    // line has at most 11 members).
    v.object.reserve(16);
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value(depth));
      skip_ws();
      const char sep = next();
      if (sep == '}') break;
      if (sep != ',') fail("expected ',' or '}'");
    }
    return v;
  }

  JsonValue parse_array(std::size_t depth) {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value(depth));
      skip_ws();
      const char sep = next();
      if (sep == ']') break;
      if (sep != ',') fail("expected ',' or ']'");
    }
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = next();
      if (c == '"') break;
      if (c == '\\') {
        char esc = next();
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = next();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            // The writer only emits \u00xx for control bytes.
            out.push_back(static_cast<char>(code & 0xff));
            break;
          }
          default: fail("bad escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E' || c == 'i' || c == 'n' || c == 'f' ||
          c == 'a' || c == 'N' || c == 'I') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string_view tok = s_.substr(start, pos_ - start);
    const char* const end = tok.data() + tok.size();
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    {
      auto [ptr, ec] = std::from_chars(tok.data(), end, v.uinteger);
      v.is_uint = ec == std::errc{} && ptr == end;
    }
    auto [ptr, ec] = std::from_chars(tok.data(), end, v.number);
    if (ec != std::errc{} || ptr != end) fail("bad number");
    return v;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::as_double() const {
  if (kind != Kind::kNumber) {
    throw std::invalid_argument("json: expected a number");
  }
  return number;
}

std::uint64_t JsonValue::as_u64() const {
  if (kind != Kind::kNumber || !is_uint) {
    throw std::invalid_argument("json: expected an unsigned integer");
  }
  return uinteger;
}

const std::string& JsonValue::as_string() const {
  if (kind != Kind::kString) {
    throw std::invalid_argument("json: expected a string");
  }
  return str;
}

JsonValue parse_json(std::string_view document) {
  return JsonParser(document).parse_document();
}

JsonlLineCounts for_each_jsonl_line(
    std::istream& is, const std::function<void(std::string_view)>& parse_line) {
  JsonlLineCounts counts;
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    ++counts.total_lines;
    try {
      parse_line(line);
    } catch (const std::exception&) {
      ++counts.skipped_lines;
    }
  }
  return counts;
}

}  // namespace match::obs
