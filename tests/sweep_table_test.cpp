// sweep::ResultTable emission: the aligned console rendering, CSV
// quoting/escaping, JSON escaping and typing, the column-typing round trip
// (ints stay ints, reals keep %.12g fidelity, strings survive quoting),
// and write failures reported as failures.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "csv_parse.hpp"
#include "sweep/result_table.hpp"

namespace sw = mss::sweep;

namespace {

sw::ResultTable sample_table() {
  sw::ResultTable t({"name", "count", "ratio"});
  t.add_row({std::string("plain"), std::int64_t{42}, 0.25});
  t.add_row({std::string("with,comma"), std::int64_t{-7}, 1.0 / 3.0});
  t.add_row({std::string("say \"hi\""), std::int64_t{0}, 6.02214076e23});
  t.add_row({std::string("line\nbreak"), std::int64_t{1}, -0.0078125});
  return t;
}

} // namespace

TEST(ResultTableText, RendersAlignedRows) {
  sw::ResultTable t({"name", "value"});
  t.add_row({std::string("x"), 1.5});
  t.add_row({std::string("longer"), 2.25});
  // Right-aligned to the widest cell, two spaces apart, dashed rule.
  EXPECT_EQ(t.str(),
            "  name  value\n"
            "-------------\n"
            "     x    1.5\n"
            "longer   2.25\n");
}

TEST(ResultTable, RejectsRowWidthMismatch) {
  sw::ResultTable t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only-one")}), std::invalid_argument);
  EXPECT_EQ(t.rows(), 0u);
}

TEST(ResultTableCsv, QuotesAndEscapes) {
  const auto csv = sample_table().csv();
  // Cells with commas/quotes/newlines are quoted; quotes are doubled.
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
  EXPECT_NE(csv.find("\"line\nbreak\""), std::string::npos);
  // Plain cells stay unquoted.
  EXPECT_NE(csv.find("plain,42,"), std::string::npos);
}

TEST(ResultTableCsv, RoundTripsCellsAndTyping) {
  const auto t = sample_table();
  const auto rows = parse_csv(t.csv());
  ASSERT_EQ(rows.size(), 1 + t.rows());
  EXPECT_EQ(rows[0], (std::vector<std::string>{"name", "count", "ratio"}));
  for (std::size_t r = 0; r < t.rows(); ++r) {
    const auto& parsed = rows[r + 1];
    ASSERT_EQ(parsed.size(), 3u);
    // Column 0: strings survive quoting verbatim.
    EXPECT_EQ(parsed[0], std::get<std::string>(t.at(r, "name")));
    // Column 1: ints parse back exactly — no decimal point, no exponent.
    EXPECT_EQ(std::stoll(parsed[1]), std::get<std::int64_t>(t.at(r, "count")));
    EXPECT_EQ(parsed[1].find('.'), std::string::npos);
    EXPECT_EQ(parsed[1].find('e'), std::string::npos);
    // Column 2: reals emitted at %.12g re-parse within representation
    // error (12 significant digits).
    const double want = std::get<double>(t.at(r, "ratio"));
    const double got = std::stod(parsed[2]);
    EXPECT_NEAR(got, want, std::abs(want) * 1e-11 + 1e-300);
  }
}

TEST(ResultTableCsv, WriteFileMatchesString) {
  const auto t = sample_table();
  const std::string path = "sweep_table_test_out.csv";
  ASSERT_TRUE(t.write_csv(path));
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), t.csv());
  std::remove(path.c_str());
}

TEST(ResultTableCsv, WriteToAFullDeviceFails) {
  // The body fits the stream buffer, so only the final flush sees ENOSPC.
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  const auto t = sample_table();
  EXPECT_FALSE(t.write_csv("/dev/full"));
  EXPECT_FALSE(t.write_json("/dev/full"));
}

TEST(ResultTableJson, EscapesAndTypes) {
  const auto json = sample_table().json();
  // Strings escaped: quote, newline.
  EXPECT_NE(json.find("\"say \\\"hi\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"line\\nbreak\""), std::string::npos);
  // Ints emit without a decimal point; reals with full %.12g fidelity.
  EXPECT_NE(json.find("\"count\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"count\": -7"), std::string::npos);
  EXPECT_NE(json.find("\"ratio\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("0.333333333333"), std::string::npos);
  EXPECT_NE(json.find("6.02214076e+23"), std::string::npos);
}

TEST(ResultTableJson, NonFiniteRealsBecomeNull) {
  sw::ResultTable t({"x"});
  t.add_row({std::numeric_limits<double>::infinity()});
  t.add_row({std::nan("")});
  const auto json = t.json();
  // JSON has no inf/nan: both cells must emit as null.
  std::size_t nulls = 0;
  for (std::size_t p = json.find("null"); p != std::string::npos;
       p = json.find("null", p + 1)) {
    ++nulls;
  }
  EXPECT_EQ(nulls, 2u);
}

TEST(ResultTableJson, ControlCharactersEscapedAsUnicode) {
  sw::ResultTable t({"s"});
  t.add_row({std::string("bell\x07tab\there")});
  const auto json = t.json();
  EXPECT_NE(json.find("\\u0007"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
}

TEST(ResultTableJson, EveryControlCharacterIsEscaped) {
  // U+0000 .. U+001F must never reach the output raw (RFC 8259 §7) — an
  // embedded NUL must neither truncate the cell nor leak through.
  sw::ResultTable t({"s"});
  t.add_row({std::string("a\0b", 3)});      // embedded NUL
  t.add_row({std::string("edge\x1f""end")}); // boundary control char
  t.add_row({std::string(" space ok ")});   // 0x20 must NOT be escaped
  const auto json = t.json();
  EXPECT_NE(json.find("\"a\\u0000b\""), std::string::npos);
  EXPECT_NE(json.find("\"edge\\u001fend\""), std::string::npos);
  EXPECT_NE(json.find("\" space ok \""), std::string::npos);
  for (const char c : json) {
    if (c == '\n') continue; // structural row separators, not cell data
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
        << "raw control char leaked into JSON";
  }
}

TEST(ResultTableJson, ShortFormEscapesForBackspaceAndFormFeed) {
  sw::ResultTable t({"s"});
  t.add_row({std::string("a\bb\fc")});
  const auto json = t.json();
  EXPECT_NE(json.find("\\b"), std::string::npos);
  EXPECT_NE(json.find("\\f"), std::string::npos);
}

TEST(ResultTableJson, RowObjectsKeyedByColumn) {
  sw::ResultTable t({"a", "b"});
  t.add_row({std::int64_t{1}, std::string("x")});
  t.add_row({std::int64_t{2}, std::string("y")});
  const auto json = t.json();
  EXPECT_NE(json.find("{\"a\": 1, \"b\": \"x\"}"), std::string::npos);
  EXPECT_NE(json.find("{\"a\": 2, \"b\": \"y\"}"), std::string::npos);
  // Valid array delimiters.
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
}
