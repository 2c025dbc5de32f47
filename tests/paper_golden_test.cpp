// Golden pins of every paper-figure driver (bench/paper/): each driver
// runs in process, and every table it returns must match
// tests/golden/paper/<id>[_<table>].csv — column names, row count, int and
// string cells exactly, reals to a relative 1e-9 (the CSV's %.12g leaves
// at most 5e-13). One case per driver, so a failure names the figure.
// The emitter is the golden format: after an intended physics change,
// regenerate by running bench_paper inside tests/golden/paper.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "csv_parse.hpp"
#include "paper/paper.hpp"

namespace mss::paper {
// Names the driver in gtest's parameter printout.
void PrintTo(const Driver& d, std::ostream* os) { *os << d.id; }
} // namespace mss::paper

namespace {

using mss::paper::Driver;

constexpr double kGoldenRel = 1e-9;

std::string read_golden(const std::string& file) {
  std::ifstream in(std::string(MSS_PAPER_GOLDEN_DIR) + "/" + file,
                   std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class PaperGolden : public testing::TestWithParam<Driver> {};

TEST_P(PaperGolden, TablesMatch) {
  const Driver& d = GetParam();
  const auto fig = d.run();
  ASSERT_FALSE(fig.tables.empty());
  for (const auto& [name, title, table] : fig.tables) {
    const std::string file =
        std::string(d.id) + (name.empty() ? "" : "_" + name) + ".csv";
    SCOPED_TRACE(file);
    const auto golden = parse_csv(read_golden(file));
    ASSERT_FALSE(golden.empty()) << "no golden file";
    EXPECT_EQ(golden[0], table.columns());
    ASSERT_EQ(golden.size() - 1, table.rows());
    for (std::size_t r = 0; r < table.rows(); ++r) {
      ASSERT_EQ(golden[r + 1].size(), table.cols()) << "row " << r;
      for (std::size_t c = 0; c < table.cols(); ++c) {
        const std::string& want = golden[r + 1][c];
        const auto& got = table.at(r, c);
        const std::string where =
            "row " + std::to_string(r) + " column " + table.columns()[c];
        const auto* x = std::get_if<double>(&got);
        if (x == nullptr) {
          EXPECT_EQ(mss::sweep::to_string(got), want) << where;
          continue;
        }
        char* end = nullptr;
        const double w = std::strtod(want.c_str(), &end);
        ASSERT_TRUE(!want.empty() && *end == '\0')
            << where << ": real cell, golden text '" << want << "'";
        if (*x == w || (std::isnan(*x) && std::isnan(w))) continue;
        EXPECT_NEAR(*x, w, kGoldenRel * std::abs(w)) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, PaperGolden, testing::ValuesIn(mss::paper::kDrivers),
    [](const testing::TestParamInfo<Driver>& info) {
      return std::string(info.param.id);
    });

} // namespace
