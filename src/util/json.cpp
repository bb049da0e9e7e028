#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "util/error.hpp"

namespace hpcem {

JsonValue::JsonValue(double n) : value_(std::in_place_index<2>, n) {
  require(std::isfinite(n), "JsonValue: numbers must be finite");
}

bool JsonValue::as_bool() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  throw ParseError("JsonValue: not a bool");
}

double JsonValue::as_number() const {
  if (const double* n = std::get_if<double>(&value_)) return *n;
  throw ParseError("JsonValue: not a number");
}

const std::string& JsonValue::as_string() const {
  if (const auto* s = std::get_if<std::string>(&value_)) return *s;
  throw ParseError("JsonValue: not a string");
}

const JsonValue::Array& JsonValue::as_array() const {
  if (const auto* a = std::get_if<Array>(&value_)) return *a;
  throw ParseError("JsonValue: not an array");
}

const JsonValue::Object& JsonValue::as_object() const {
  if (const auto* o = std::get_if<Object>(&value_)) return *o;
  throw ParseError("JsonValue: not an object");
}

void JsonValue::set(std::string key, JsonValue value) {
  auto* object = std::get_if<Object>(&value_);
  require(object != nullptr, "JsonValue::set: not an object");
  for (auto& [k, v] : *object) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object->emplace_back(std::move(key), std::move(value));
}

void JsonValue::push_back(JsonValue value) {
  auto* array = std::get_if<Array>(&value_);
  require(array != nullptr, "JsonValue::push_back: not an array");
  array->push_back(std::move(value));
}

const JsonValue* JsonValue::get(std::string_view key) const {
  const auto* object = std::get_if<Object>(&value_);
  if (object == nullptr) return nullptr;
  for (const auto& [k, v] : *object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = get(key);
  if (v == nullptr) {
    throw ParseError("JsonValue: missing member: " + std::string(key));
  }
  return *v;
}

namespace {

void append_shortest(std::string& out, double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  HPCEM_ASSERT(ec == std::errc(), "json_number: to_chars failed");
  out.append(buf, ptr);
}

}  // namespace

void append_json_number(std::string& out, double v) {
  require(std::isfinite(v), "JsonValue: numbers must be finite");
  append_shortest(out, v);
}

std::string json_number(double v) {
  std::string out;
  append_shortest(out, v);
  return out;
}

void append_json_quoted(std::string& out, std::string_view s) {
  out.push_back('"');
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[6] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xF]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.append(s, run, s.size() - run);
  out.push_back('"');
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_json_quoted(out, s);
  return out;
}

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  const auto newline_pad = [&](int levels) {
    if (indent <= 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) *
                   static_cast<std::size_t>(levels),
               ' ');
  };
  switch (type()) {
    case Type::kNull: out += "null"; break;
    case Type::kBool:
      out += std::get<bool>(value_) ? "true" : "false";
      break;
    case Type::kNumber:  // finite by construction
      append_shortest(out, std::get<double>(value_));
      break;
    case Type::kString:
      append_json_quoted(out, std::get<std::string>(value_));
      break;
    case Type::kArray: {
      const Array& array = std::get<Array>(value_);
      if (array.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline_pad(depth + 1);
        array[i].dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      const Object& object = std::get<Object>(value_);
      if (object.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < object.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline_pad(depth + 1);
        append_json_quoted(out, object[i].first);
        out += indent > 0 ? ": " : ":";
        object[i].second.dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out.push_back('}');
      break;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  if (indent > 0) out.push_back('\n');
  return out;
}

namespace {

/// Recursive-descent JSON parser over a string_view.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text, JsonParseOptions options)
      : text_(text), options_(options) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    // 1-based line/column of pos_, so editors can jump to the defect.
    std::size_t line = 1;
    std::size_t col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw ParseError("json: " + why + " at line " + std::to_string(line) +
                     ", column " + std::to_string(col));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
        continue;
      }
      if (options_.allow_comments && c == '/' && pos_ + 1 < text_.size()) {
        if (text_[pos_ + 1] == '/') {
          pos_ += 2;
          while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
          continue;
        }
        if (text_[pos_ + 1] == '*') {
          const std::size_t open = pos_;
          pos_ += 2;
          while (pos_ + 1 < text_.size() &&
                 !(text_[pos_] == '*' && text_[pos_ + 1] == '/')) {
            ++pos_;
          }
          if (pos_ + 1 >= text_.size()) {
            pos_ = open;
            fail("unterminated /* comment");
          }
          pos_ += 2;
          continue;
        }
      }
      break;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue();
      default: return parse_number();
    }
  }

  /// One more array/object level; past kJsonMaxDepth the document is
  /// refused before the recursion can exhaust the stack.
  void enter() {
    if (++depth_ > kJsonMaxDepth) {
      fail("nesting deeper than " + std::to_string(kJsonMaxDepth) +
           " levels");
    }
  }

  JsonValue parse_object() {
    enter();
    expect('{');
    JsonValue::Object members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return JsonValue(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      JsonValue value = parse_value();
      // A repeated key overwrites the first in place (JsonValue::set).
      const auto dup = std::find_if(
          members.begin(), members.end(),
          [&](const JsonValue::Member& m) { return m.first == key; });
      if (dup != members.end()) {
        dup->second = std::move(value);
      } else {
        members.emplace_back(std::move(key), std::move(value));
      }
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        --depth_;
        return JsonValue(std::move(members));
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    enter();
    expect('[');
    JsonValue::Array items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return JsonValue(std::move(items));
    }
    // Most arrays on the wire are [time, value] pairs: size them once.
    items.reserve(2);
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        --depth_;
        return JsonValue(std::move(items));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run up to the next quote, escape or control character
      // in one append.
      const std::size_t run = pos_;
      while (pos_ < text_.size()) {
        const auto u = static_cast<unsigned char>(text_[pos_]);
        if (u == '"' || u == '\\' || u < 0x20) break;
        ++pos_;
      }
      out.append(text_, run, pos_ - run);
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') fail("unescaped control character in string");
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: fail("bad escape character");
      }
    }
  }

  void append_unicode_escape(std::string& out) {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad \\u escape digit");
      }
    }
    // UTF-8 encode the BMP code point (surrogate pairs out of scope).
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc() || ptr != text_.data() + pos_) {
      pos_ = start;
      fail("malformed number");
    }
    return JsonValue(value);
  }

  std::string_view text_;
  JsonParseOptions options_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects currently open
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text, JsonParseOptions{}).parse_document();
}

JsonValue JsonValue::parse(std::string_view text,
                           const JsonParseOptions& options) {
  return JsonParser(text, options).parse_document();
}

}  // namespace hpcem
