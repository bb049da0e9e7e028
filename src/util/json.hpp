// Minimal JSON value model, serializer and parser.
//
// The run-artifact layer (core/run_artifact.hpp) exchanges structured
// results between benches, tools and external analysis as JSON.  Scope: the
// JSON the library itself writes — objects (insertion-ordered), arrays,
// strings (with standard escapes), finite doubles, bools and null.  It is
// not a general-purpose JSON engine: no surrogate-pair decoding beyond
// \uXXXX -> UTF-8, no comments, no NaN/Infinity extensions, and nesting
// is capped at kJsonMaxDepth levels.
//
// A JsonValue holds its one live alternative in a std::variant (about 40
// bytes a node).  Serialization appends numbers and quoted strings straight
// into the output buffer through append_json_number / append_json_quoted;
// code that renders a fixed shape without building a tree (the serve
// layer's canonical request key) uses the same appenders, so both paths
// produce the same bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace hpcem {

/// Deepest array/object nesting the parser accepts.  The recursive-descent
/// parser uses one stack frame per level, so an unbounded depth would let
/// one request line overflow the stack; committed documents nest at most
/// a handful of levels.
inline constexpr int kJsonMaxDepth = 128;

/// Parse-time dialect switches.  The default is strict JSON; the scenario
/// spec layer (core/spec_io.hpp) enables comments for human-edited files.
/// Artifacts and query wire formats stay strict.
struct JsonParseOptions {
  /// Treat `// line` and `/* block */` comments as whitespace.
  bool allow_comments = false;
};

/// One JSON value: null, bool, number, string, array or object.  Objects
/// preserve insertion order so serialized artifacts are deterministic and
/// diffable.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Member = std::pair<std::string, JsonValue>;
  using Object = std::vector<Member>;

  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  JsonValue(bool b) : value_(std::in_place_index<1>, b) {}    // NOLINT
  JsonValue(double n);                                         // NOLINT
  JsonValue(int n) : JsonValue(static_cast<double>(n)) {}      // NOLINT
  JsonValue(std::size_t n)                                     // NOLINT
      : JsonValue(static_cast<double>(n)) {}
  JsonValue(std::string s)                                     // NOLINT
      : value_(std::in_place_index<3>, std::move(s)) {}
  JsonValue(const char* s) : JsonValue(std::string(s)) {}      // NOLINT
  JsonValue(Array a)                                           // NOLINT
      : value_(std::in_place_index<4>, std::move(a)) {}
  JsonValue(Object o)                                          // NOLINT
      : value_(std::in_place_index<5>, std::move(o)) {}

  [[nodiscard]] static JsonValue object() { return JsonValue(Object{}); }
  [[nodiscard]] static JsonValue array() { return JsonValue(Array{}); }

  [[nodiscard]] Type type() const {
    return static_cast<Type>(value_.index());
  }
  [[nodiscard]] bool is_null() const { return type() == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type() == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type() == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type() == Type::kString; }
  [[nodiscard]] bool is_array() const { return type() == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type() == Type::kObject; }

  /// Typed accessors; throw ParseError on a type mismatch (the artifact
  /// reader treats a mistyped field like malformed input).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Set a member on an object value (must be an object).  A new key
  /// appends, keeping insertion order; an existing key is overwritten in
  /// place.
  void set(std::string key, JsonValue value);
  /// Append an element to an array value (must be an array).
  void push_back(JsonValue value);

  /// Member lookup on an object: nullptr when absent.
  [[nodiscard]] const JsonValue* get(std::string_view key) const;
  /// Member lookup on an object; throws ParseError when absent.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

  /// Serialize.  `indent` > 0 pretty-prints with that many spaces per
  /// level; 0 emits compact single-line JSON.
  [[nodiscard]] std::string dump(int indent = 2) const;

  /// Parse a complete JSON document; throws ParseError on malformed input
  /// or trailing garbage.  Errors report 1-based line and column.
  [[nodiscard]] static JsonValue parse(std::string_view text);
  [[nodiscard]] static JsonValue parse(std::string_view text,
                                       const JsonParseOptions& options);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  // Alternative order matches Type, so type() is the variant index.
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

/// Append `s` escaped and double-quoted, as JSON output writes it.
void append_json_quoted(std::string& out, std::string_view s);

/// Append the shortest round-trip decimal rendering of `v` ("17" not
/// "17.000000"); every number the JSON layer writes goes through here.
/// Throws InvalidArgument when `v` is not finite, as JsonValue(double)
/// does.
void append_json_number(std::string& out, double v);

/// The same rendering as a fresh string (non-finite values render as
/// "inf" / "nan" for diagnostics and CSV; JSON output never holds them).
[[nodiscard]] std::string json_number(double v);

}  // namespace hpcem
