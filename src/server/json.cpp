#include "server/json.hpp"

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <iterator>

namespace lmds::server {

std::string_view to_string(JsonValue::Type t) {
  switch (t) {
    case JsonValue::Type::Null: return "null";
    case JsonValue::Type::Bool: return "bool";
    case JsonValue::Type::Int: return "int";
    case JsonValue::Type::Double: return "double";
    case JsonValue::Type::String: return "string";
    case JsonValue::Type::Array: return "array";
    case JsonValue::Type::Object: return "object";
  }
  return "?";
}

namespace {

[[noreturn]] void type_error(JsonValue::Type got, std::string_view want) {
  throw JsonError("expected " + std::string(want) + ", got " +
                  std::string(to_string(got)));
}

}  // namespace

bool JsonValue::as_bool() const {
  if (type() != Type::Bool) type_error(type(), "bool");
  return std::get<bool>(v_);
}

std::int64_t JsonValue::as_int() const {
  if (type() != Type::Int) type_error(type(), "int");
  return std::get<std::int64_t>(v_);
}

double JsonValue::as_double() const {
  if (type() == Type::Int) return static_cast<double>(std::get<std::int64_t>(v_));
  if (type() != Type::Double) type_error(type(), "number");
  return std::get<double>(v_);
}

const std::string& JsonValue::as_string() const {
  if (type() != Type::String) type_error(type(), "string");
  return std::get<std::string>(v_);
}

const JsonValue::Array& JsonValue::as_array() const {
  if (type() != Type::Array) type_error(type(), "array");
  return std::get<Array>(v_);
}

const JsonValue::Object& JsonValue::as_object() const {
  if (type() != Type::Object) type_error(type(), "object");
  return std::get<Object>(v_);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type() != Type::Object) return nullptr;
  const Object& obj = std::get<Object>(v_);
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Parser

namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after JSON value");
    return v;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::vector<JsonValue> stack_;  // open arrays' parsed elements, innermost last

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError(what + " at byte " + std::to_string(pos_));
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (eof() || peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting deeper than 64 levels");
    skip_ws();
    if (eof()) fail("unexpected end of input");
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue::Object obj;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return JsonValue(std::move(obj));
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value(depth + 1);  // duplicate key: last wins
      skip_ws();
      if (eof()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue(std::move(obj));
    }
  }

  // Elements are parsed onto stack_, shared by every nesting level (an
  // inner array finishes and pops its own elements before the outer one
  // pushes again), then moved into an Array of exactly their count: one
  // allocation per array instead of one per capacity doubling.
  JsonValue parse_array(int depth) {
    expect('[');
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return JsonValue(JsonValue::Array{});
    }
    const std::size_t base = stack_.size();
    while (true) {
      stack_.push_back(parse_value(depth + 1));
      skip_ws();
      if (eof()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      const auto first = stack_.begin() + static_cast<std::ptrdiff_t>(base);
      JsonValue::Array arr(std::make_move_iterator(first), std::make_move_iterator(stack_.end()));
      stack_.erase(first, stack_.end());
      return JsonValue(std::move(arr));
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape digit");
    }
    return value;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: need the pair
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
              fail("unpaired surrogate");
            }
            pos_ += 2;
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    bool integral = true;
    if (!eof() && peek() == '.') {
      integral = false;
      ++pos_;
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string_view lit = text_.substr(start, pos_ - start);
    if (integral) {
      std::int64_t value = 0;
      const auto [ptr, ec] = std::from_chars(lit.data(), lit.data() + lit.size(), value);
      if (ec == std::errc() && ptr == lit.data() + lit.size()) return JsonValue(value);
      // Out-of-int64-range integer literals fall through to double.
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(lit.data(), lit.data() + lit.size(), value);
    if (ec != std::errc() || ptr != lit.data() + lit.size() || !std::isfinite(value)) {
      pos_ = start;
      fail("invalid number");
    }
    return JsonValue(value);
  }
};

}  // namespace

JsonValue json_parse(std::string_view text) { return Parser(text).parse_document(); }

void json_append_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void json_append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc()) {
    out += "null";
    return;
  }
  out.append(buf, ptr);
}

void json_append_value(std::string& out, const JsonValue& v) {
  switch (v.type()) {
    case JsonValue::Type::Null: out += "null"; break;
    case JsonValue::Type::Bool: out += v.as_bool() ? "true" : "false"; break;
    case JsonValue::Type::Int: out += std::to_string(v.as_int()); break;
    case JsonValue::Type::Double: json_append_double(out, v.as_double()); break;
    case JsonValue::Type::String: json_append_string(out, v.as_string()); break;
    case JsonValue::Type::Array: {
      out += '[';
      bool first = true;
      for (const JsonValue& item : v.as_array()) {
        if (!first) out += ',';
        first = false;
        json_append_value(out, item);
      }
      out += ']';
      break;
    }
    case JsonValue::Type::Object: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : v.as_object()) {
        if (!first) out += ',';
        first = false;
        json_append_string(out, key);
        out += ':';
        json_append_value(out, value);
      }
      out += '}';
      break;
    }
  }
}

std::string json_dump(const JsonValue& v) {
  std::string out;
  json_append_value(out, v);
  return out;
}

}  // namespace lmds::server
