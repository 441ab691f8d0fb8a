#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <utility>

#include "json/json.hpp"

namespace cosmo::json {
namespace {

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(parse("-1e3").as_number(), -1000.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParseNestedStructure) {
  const Value v = parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(v.is_object());
  const auto& arr = v.at("a").as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_DOUBLE_EQ(arr[1].as_number(), 2.0);
  EXPECT_TRUE(arr[2].at("b").as_bool());
  EXPECT_EQ(v.at("c").as_string(), "x");
}

TEST(Json, StringEscapes) {
  const Value v = parse(R"("a\"b\\c\nd\tA")");
  EXPECT_EQ(v.as_string(), "a\"b\\c\nd\tA");
  // Each special byte at every offset of a long run: the escaper and the
  // parser skip clean runs eight bytes at a time.
  const std::pair<char, std::string> specials[] = {
      {'"', "\\\""}, {'\\', "\\\\"}, {'\n', "\\n"}, {'\x01', "\\u0001"}, {'\x1f', "\\u001f"}};
  for (const auto& [special, escaped] : specials) {
    for (std::size_t at = 0; at < 24; ++at) {
      std::string s(24, 'x');
      s[at] = special;
      s += "\xC3\xA9 tail";
      const std::string dumped = Value(s).dump();
      std::string expected = "\"";
      expected += s.substr(0, at) + escaped + s.substr(at + 1) + "\"";
      EXPECT_EQ(dumped, expected);
      EXPECT_EQ(parse(dumped).as_string(), s) << "special " << int(special) << " at " << at;
    }
  }
}

TEST(Json, UnicodeEscapeMultibyte) {
  EXPECT_EQ(parse(R"("é")").as_string(), "\xC3\xA9");   // e-acute
  EXPECT_EQ(parse(R"("€")").as_string(), "\xE2\x82\xAC");  // euro sign
}

TEST(Json, RoundTripThroughDump) {
  const std::string src = R"({"arr":[1,2.5,"s"],"flag":false,"nested":{"k":null}})";
  const Value v = parse(src);
  const Value again = parse(v.dump());
  EXPECT_EQ(v, again);
}

TEST(Json, PrettyPrintParsesBack) {
  const Value v = parse(R"({"a":[1,2],"b":{"c":3}})");
  const std::string pretty = v.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(parse(pretty), v);
}

TEST(Json, NumberFormattingRoundTrips) {
  for (const double d : {0.1, 1e-20, 123456789.123456, -0.0, 3.0}) {
    const Value v(d);
    EXPECT_DOUBLE_EQ(parse(v.dump()).as_number(), d);
  }
}

TEST(Json, NonFiniteNumbersDumpAsNull) {
  Object o;
  o["nan"] = std::numeric_limits<double>::quiet_NaN();
  o["inf"] = -std::numeric_limits<double>::infinity();
  const std::string text = Value(o).dump();
  EXPECT_EQ(text, R"({"inf":null,"nan":null})");
  EXPECT_TRUE(parse(text).at("nan").is_null());
}

TEST(Json, MalformedInputsThrow) {
  EXPECT_THROW(parse(""), FormatError);
  EXPECT_THROW(parse("{"), FormatError);
  EXPECT_THROW(parse("[1,]"), FormatError);
  EXPECT_THROW(parse("{\"a\" 1}"), FormatError);
  EXPECT_THROW(parse("tru"), FormatError);
  EXPECT_THROW(parse("\"unterminated"), FormatError);
  EXPECT_THROW(parse("1 2"), FormatError);
  EXPECT_THROW(parse("{1: 2}"), FormatError);
  // Messages are formatted only on failure, and still name the offset.
  const auto what = [](const std::string& text) -> std::string {
    try {
      (void)parse(text);
    } catch (const FormatError& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(what("{\"a\" 1}"), "json parse error at offset 5: expected ':'");
  EXPECT_EQ(what("[1 2]"), "json parse error at offset 4: expected ',' or ']' in array");
  EXPECT_EQ(what("\"unterminated"), "json parse error at offset 1: unterminated string");
  EXPECT_EQ(what("[1.2.3]"), "json parse error at offset 6: malformed number '1.2.3'");
  EXPECT_EQ(what("\"\\u12g4\""), "json parse error at offset 6: bad hex digit in \\u escape");
}

TEST(Json, TypeMismatchThrows) {
  const Value v = parse("[1]");
  EXPECT_THROW((void)v.as_object(), FormatError);
  EXPECT_THROW((void)v.as_string(), FormatError);
  try {
    (void)parse("{}").at("missing");
    ADD_FAILURE() << "at() accepted a missing key";
  } catch (const FormatError& e) {
    EXPECT_STREQ(e.what(), "json: missing key 'missing'");
  }
}

TEST(Json, GetWithFallback) {
  const Value v = parse(R"({"x": 5, "s": "str", "b": true})");
  EXPECT_DOUBLE_EQ(v.get("x", 0.0), 5.0);
  EXPECT_DOUBLE_EQ(v.get("y", 7.0), 7.0);
  EXPECT_EQ(v.get("s", std::string("d")), "str");
  EXPECT_EQ(v.get("t", std::string("d")), "d");
  EXPECT_TRUE(v.get("b", false));
  EXPECT_TRUE(v.get("c", true));
  EXPECT_TRUE(v.contains("x"));
  EXPECT_FALSE(v.contains("zzz"));
}

TEST(Json, ParseFile) {
  const std::string path = ::testing::TempDir() + "/cosmo_json_test.json";
  {
    std::ofstream out(path);
    out << R"({"key": [1, 2, 3]})";
  }
  const Value v = parse_file(path);
  EXPECT_EQ(v.at("key").as_array().size(), 3u);
  std::remove(path.c_str());
  EXPECT_THROW(parse_file("/nonexistent/nope.json"), IoError);
}

TEST(Json, BuildProgrammatically) {
  Object obj;
  obj["name"] = Value("run");
  obj["values"] = Value(Array{Value(1.0), Value(2.0)});
  const Value v(obj);
  EXPECT_EQ(v.dump(), R"({"name":"run","values":[1,2]})");
}

}  // namespace
}  // namespace cosmo::json
