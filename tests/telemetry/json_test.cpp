#include "telemetry/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace hmpi::telemetry {
namespace {

TEST(JsonQuote, EscapesSpecials) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_quote("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(json_quote(std::string("a\x01") + "b"), "\"a\\u0001b\"");
}

TEST(JsonNumber, IntegralPrintsWithoutPoint) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(-7.0), "-7");
}

TEST(JsonNumber, NonFiniteIsNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonNumber, FractionRoundTrips) {
  const std::string s = json_number(0.1);
  EXPECT_DOUBLE_EQ(std::stod(s), 0.1);
}

TEST(ParseJson, Document) {
  const auto doc = parse_json(
      R"({"a": 1, "b": [true, false, null], "c": {"nested": "x\n"}, "d": -2.5e3})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_DOUBLE_EQ(doc->find("a")->number, 1.0);
  ASSERT_TRUE(doc->find("b")->is_array());
  EXPECT_EQ(doc->find("b")->array.size(), 3u);
  EXPECT_TRUE(doc->find("b")->array[0].boolean);
  EXPECT_TRUE(doc->find("b")->array[2].is_null());
  EXPECT_EQ(doc->find("c")->find("nested")->string, "x\n");
  EXPECT_DOUBLE_EQ(doc->find("d")->number, -2500.0);
}

TEST(ParseJson, RejectsMalformed) {
  std::string error;
  EXPECT_FALSE(parse_json("{", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_json("[1,]").has_value());
  EXPECT_FALSE(parse_json("{\"a\": 1} trailing").has_value());
  EXPECT_FALSE(parse_json("'single'").has_value());
  EXPECT_FALSE(parse_json("01a").has_value());
  EXPECT_FALSE(parse_json("\"unterminated").has_value());
  // JSON has no infinity: a number that overflows a double is malformed.
  EXPECT_FALSE(parse_json("1e999", &error).has_value());
  EXPECT_EQ(error, "json: offset 0: number out of range");
  error.clear();
  EXPECT_FALSE(parse_json("{\"a\": [1, -2e308]}", &error).has_value());
  EXPECT_EQ(error, "json: offset 10: number out of range");
  const auto tiny = parse_json("1e-999");
  ASSERT_TRUE(tiny.has_value());
  EXPECT_EQ(tiny->number, 0.0);
}

TEST(ParseJson, QuoteRoundTrips) {
  const std::string encoded = json_quote("line1\nline2\t\"quoted\"");
  const auto doc = parse_json(encoded);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string, "line1\nline2\t\"quoted\"");
}

TEST(ParseJson, UnicodeEscape) {
  const auto doc = parse_json("\"A\\u00e9\"");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string, "A\xC3\xA9");  // U+00E9 as UTF-8
}

bool all_numbers_finite(const JsonValue& v) {
  if (v.is_number()) return std::isfinite(v.number);
  for (const JsonValue& e : v.array) {
    if (!all_numbers_finite(e)) return false;
  }
  for (const auto& [key, e] : v.object) {
    if (!all_numbers_finite(e)) return false;
  }
  return true;
}

TEST(ParseJson, ByteMutationsOfTheFixturesParseOrFailWithAnOffset) {
  // Seeded mutations of the committed metrics dumps, one to three per
  // trial: delete a few bytes, insert a snippet, or overwrite a byte. Each
  // mutant must parse with every number finite, or fail with an
  // offset-annotated error.
  std::vector<std::string> fixtures;
  for (const char* name :
       {"metrics_estimator.json", "metrics_estimator_delta.json",
        "metrics_sim.json", "metrics_undeclared.json"}) {
    std::ifstream in(std::string(HMPI_TELEMETRY_FIXTURES) + "/" + name);
    ASSERT_TRUE(in) << name;
    std::ostringstream text;
    text << in.rdbuf();
    fixtures.push_back(text.str());
  }
  const std::vector<std::string> snippets = {
      "{", "}", "[", "]", ",", ":", "\"", "\\", "-", "+", ".", "e", "0",
      "9", "e999", "1e999", "-1e400", "e-999", "null", "tru", "\\u00",
      "\\ud800", " ", "\n", "\x01", "\xff", "NaN", "Infinity"};
  support::Rng rng(2003);
  int parsed = 0;
  int rejected = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::string text = fixtures[rng.next_below(fixtures.size())];
    const int mutations = 1 + static_cast<int>(rng.next_below(3));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t at = rng.next_below(text.size());
      switch (rng.next_below(3)) {
        case 0:
          text.erase(at, 1 + rng.next_below(3));
          break;
        case 1:
          text.insert(at, snippets[rng.next_below(snippets.size())]);
          break;
        default:
          text[at] = static_cast<char>(rng.next_below(256));
      }
    }
    std::string error;
    const auto doc = parse_json(text, &error);
    if (doc.has_value()) {
      ++parsed;
      EXPECT_TRUE(all_numbers_finite(*doc)) << text;
      continue;
    }
    ++rejected;
    const std::string prefix = "json: offset ";
    ASSERT_EQ(error.compare(0, prefix.size(), prefix), 0) << error;
    const std::size_t offset = std::stoul(error.substr(prefix.size()));
    EXPECT_LE(offset, text.size()) << error << "\n" << text;
  }
  // Both outcomes occur, so the corpus reaches the parser's checks and its
  // accepted paths.
  EXPECT_GT(parsed, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace hmpi::telemetry
