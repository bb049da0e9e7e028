// Unit tests for the minimal JSON value/parser used by the run-artifact
// layer.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/json.hpp"

namespace hpcem {
namespace {

TEST(JsonValue, ScalarsAndAccessors) {
  const JsonValue b = true;
  const JsonValue n = 3220.5;
  const JsonValue i = 42;
  const JsonValue s = "archer2";
  EXPECT_TRUE(b.as_bool());
  EXPECT_DOUBLE_EQ(n.as_number(), 3220.5);
  EXPECT_DOUBLE_EQ(i.as_number(), 42.0);
  EXPECT_EQ(s.as_string(), "archer2");
  EXPECT_THROW(b.as_number(), ParseError);
  EXPECT_THROW(n.as_string(), ParseError);
  EXPECT_THROW(s.as_array(), ParseError);
}

TEST(JsonValue, NonFiniteNumbersRejected) {
  EXPECT_THROW(JsonValue{std::nan("")}, InvalidArgument);
  EXPECT_THROW(JsonValue{INFINITY}, InvalidArgument);
}

TEST(JsonValue, ObjectPreservesInsertionOrder) {
  JsonValue v = JsonValue::object();
  v.set("zeta", 1);
  v.set("alpha", 2);
  v.set("mid", 3);
  EXPECT_EQ(v.dump(0), "{\"zeta\":1,\"alpha\":2,\"mid\":3}");
  // set() on an existing key overwrites in place.
  v.set("alpha", 9);
  EXPECT_EQ(v.dump(0), "{\"zeta\":1,\"alpha\":9,\"mid\":3}");
}

TEST(JsonValue, DumpIsDeterministic) {
  const auto build = [] {
    JsonValue v = JsonValue::object();
    v.set("name", "fig2");
    JsonValue arr = JsonValue::array();
    arr.push_back(1.5);
    arr.push_back("two");
    arr.push_back(JsonValue{});
    v.set("items", std::move(arr));
    return v;
  };
  EXPECT_EQ(build().dump(2), build().dump(2));
}

TEST(JsonValue, NumberRenderingRoundTrips) {
  // Shortest round-trip rendering: parsing the dump recovers the exact
  // double.
  for (const double x : {0.0, -0.0, 1.0, 0.1, 3220.8372880533734,
                         1.0e-300, 1.0e300, -123456.789}) {
    const JsonValue v = x;
    const JsonValue back = JsonValue::parse(v.dump(0));
    EXPECT_EQ(back.as_number(), x) << "value " << x;
  }
}

TEST(JsonParse, ObjectsArraysAndNesting) {
  const JsonValue v = JsonValue::parse(
      R"({"a": [1, 2.5, -3], "b": {"c": true, "d": null}, "e": "x"})");
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[1].as_number(), 2.5);
  EXPECT_TRUE(v.at("b").at("c").as_bool());
  EXPECT_TRUE(v.at("b").at("d").is_null());
  EXPECT_EQ(v.at("e").as_string(), "x");
  EXPECT_EQ(v.get("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), ParseError);
}

TEST(JsonParse, StringEscapes) {
  const JsonValue v =
      JsonValue::parse(R"("line\nbreak \"quoted\" tab\t\\ é")");
  EXPECT_EQ(v.as_string(), "line\nbreak \"quoted\" tab\t\\ \xc3\xa9");
}

TEST(JsonParse, QuoteRoundTrip) {
  const std::string raw = "a\"b\\c\nd\te\x01f";
  const JsonValue v = JsonValue::parse(JsonValue(raw).dump(0));
  EXPECT_EQ(v.as_string(), raw);
}

TEST(JsonParse, MalformedInputThrows) {
  EXPECT_THROW(JsonValue::parse(""), ParseError);
  EXPECT_THROW(JsonValue::parse("{"), ParseError);
  EXPECT_THROW(JsonValue::parse("[1, 2,]"), ParseError);
  EXPECT_THROW(JsonValue::parse("{\"a\": }"), ParseError);
  EXPECT_THROW(JsonValue::parse("{\"a\": 1} trailing"), ParseError);
  EXPECT_THROW(JsonValue::parse("'single'"), ParseError);
  EXPECT_THROW(JsonValue::parse("truee"), ParseError);
  EXPECT_THROW(JsonValue::parse("nul"), ParseError);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), ParseError);
  EXPECT_THROW(JsonValue::parse("1.2.3"), ParseError);
}

TEST(JsonParse, ErrorsReportLineAndColumn) {
  const auto message_of = [](const std::string& text) {
    try {
      (void)JsonValue::parse(text);
      return std::string("(no error)");
    } catch (const ParseError& e) {
      return std::string(e.what());
    }
  };
  EXPECT_EQ(message_of(""), "json: unexpected end of input at line 1, "
                            "column 1");
  EXPECT_EQ(message_of("{\"a\": 1,\n \"b\": oops}"),
            "json: expected a value at line 2, column 7");
  EXPECT_EQ(message_of("[1, 2\n3]"),
            "json: expected ',' or ']' in array at line 2, column 1");
  EXPECT_EQ(message_of("{\"a\": 1} x"),
            "json: trailing characters after document at line 1, column 10");
}

TEST(JsonParse, CommentsRejectedByDefaultAllowedByOption) {
  const std::string text =
      "// leading\n{\"a\": /* inline */ 1,\n\"b\": 2 // trailing\n}";
  EXPECT_THROW(JsonValue::parse(text), ParseError);

  const JsonValue v =
      JsonValue::parse(text, JsonParseOptions{.allow_comments = true});
  EXPECT_DOUBLE_EQ(v.at("a").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(v.at("b").as_number(), 2.0);

  // Comment markers inside strings are content, not comments.
  const JsonValue s = JsonValue::parse(
      R"({"url": "http://x/*y"})", JsonParseOptions{.allow_comments = true});
  EXPECT_EQ(s.at("url").as_string(), "http://x/*y");

  // An unterminated block comment points at its opener.
  try {
    (void)JsonValue::parse("{\n/* never closed",
                           JsonParseOptions{.allow_comments = true});
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()),
              "json: unterminated /* comment at line 2, column 1");
  }
}

TEST(JsonParse, NestingIsCappedWithALocatedError) {
  const auto nested = [](int levels) {
    return std::string(static_cast<std::size_t>(levels), '[') +
           std::string(static_cast<std::size_t>(levels), ']');
  };
  // The deepest accepted document round-trips.
  const std::string deepest = nested(kJsonMaxDepth);
  EXPECT_EQ(JsonValue::parse(deepest).dump(0), deepest);
  // One level more is refused at the bracket that crosses the limit.
  try {
    (void)JsonValue::parse(nested(kJsonMaxDepth + 1));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()),
              "json: nesting deeper than 128 levels at line 1, column 129");
  }
  // A request line of 100,000 open brackets: a clean error, not a stack
  // overflow.  Objects count toward the same limit.
  const std::string line =
      "{\"op\":\"list\",\"id\":" + std::string(100000, '[');
  try {
    (void)JsonValue::parse(line);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()),
              "json: nesting deeper than 128 levels at line 1, column 146");
  }
  std::string objects;
  for (int i = 0; i <= kJsonMaxDepth; ++i) objects += "{\"k\":";
  EXPECT_THROW(JsonValue::parse(objects), ParseError);
}

TEST(JsonValue, AppendersMatchTheStringForms) {
  const std::string raw =
      std::string("plain \"q\" \\ /\b\f\n\r\t") + '\0' +
      "\x01\x1f\x7f \xc3\xa9";
  std::string out = "prefix:";
  append_json_quoted(out, raw);
  EXPECT_EQ(out, "prefix:" + JsonValue(raw).dump(0));
  EXPECT_EQ(JsonValue(raw).dump(0),
            "\"plain \\\"q\\\" \\\\ /\\b\\f\\n\\r\\t\\u0000\\u0001\\u001f\x7f "
            "\xc3\xa9\"");
  EXPECT_EQ(JsonValue::parse(JsonValue(raw).dump(0)).as_string(), raw);

  for (const double x : {0.0, -0.0, 0.1, 5e-324, 1e21, 9007199254740993.0,
                         -123456.789}) {
    std::string n;
    append_json_number(n, x);
    EXPECT_EQ(n, json_number(x));
    EXPECT_EQ(n, JsonValue(x).dump(0));
  }
  std::string n;
  EXPECT_THROW(append_json_number(n, INFINITY), InvalidArgument);
  EXPECT_THROW(append_json_number(n, std::nan("")), InvalidArgument);
}

TEST(JsonParse, CommittedArtifactsRedumpByteIdentically) {
  // Every committed artifact was written by dump(2); parsing and dumping
  // it again must reproduce the file byte for byte.
  std::size_t checked = 0;
  for (const char* dir : {"bench/baselines/serve", "scenarios/ci"}) {
    const std::filesystem::path root =
        std::filesystem::path(HPCEM_SOURCE_DIR) / dir;
    for (const auto& entry : std::filesystem::directory_iterator(root)) {
      const std::string name = entry.path().filename().string();
      if (name.size() < 14 ||
          name.compare(name.size() - 14, 14, ".artifact.json") != 0) {
        continue;
      }
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream text;
      text << in.rdbuf();
      EXPECT_EQ(JsonValue::parse(text.str()).dump(2), text.str()) << name;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 3u);
}

TEST(JsonParse, RoundTripComplexDocument) {
  JsonValue v = JsonValue::object();
  v.set("schema", "hpcem.run_artifact");
  v.set("version", 1);
  JsonValue channels = JsonValue::array();
  for (int i = 0; i < 3; ++i) {
    JsonValue c = JsonValue::object();
    c.set("name", "ch" + std::to_string(i));
    c.set("mean", 3000.0 + 0.1 * i);
    channels.push_back(std::move(c));
  }
  v.set("channels", std::move(channels));
  const JsonValue back = JsonValue::parse(v.dump(2));
  EXPECT_EQ(back.dump(2), v.dump(2));
}

}  // namespace
}  // namespace hpcem
