// Tests of the declarative sweep subsystem: ParamSpace composition
// (cross/zip sizes, range endpoints), Runner determinism (bit-identical
// results for 1 vs N threads, draws keyed on the point, not its index)
// and the ResultTable emission formats.
#include "sweep/experiment.hpp"
#include "sweep/param_space.hpp"
#include "sweep/result_table.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace sw = mss::sweep;

TEST(Axis, LinearEndpointsAndCount) {
  const auto a = sw::Axis::linear("x", 1.0, 5.0, 5);
  ASSERT_EQ(a.size(), 5u);
  EXPECT_EQ(std::get<double>(a.at(0)), 1.0);
  EXPECT_EQ(std::get<double>(a.at(2)), 3.0);
  EXPECT_EQ(std::get<double>(a.at(4)), 5.0); // exact endpoint

  const auto one = sw::Axis::linear("x", 2.5, 9.0, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(std::get<double>(one.at(0)), 2.5);
}

TEST(Axis, LogEndpointsExactAndGeometric) {
  const auto a = sw::Axis::log("rate", 1e-5, 1e-15, 6);
  ASSERT_EQ(a.size(), 6u);
  EXPECT_EQ(std::get<double>(a.at(0)), 1e-5);  // exact lo
  EXPECT_EQ(std::get<double>(a.at(5)), 1e-15); // exact hi
  for (std::size_t i = 1; i < a.size(); ++i) {
    const double ratio = std::get<double>(a.at(i)) / std::get<double>(a.at(i - 1));
    EXPECT_NEAR(ratio, 1e-2, 1e-9);
  }
  EXPECT_THROW((void)sw::Axis::log("bad", 0.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW((void)sw::Axis::log("bad", -1.0, 1.0, 3),
               std::invalid_argument);
}

TEST(ParamSpace, CrossSizesAndOrdering) {
  const auto space =
      sw::ParamSpace()
          .cross(sw::Axis::list("a", std::vector<std::int64_t>{1, 2, 3}))
          .cross(sw::Axis::list("b", {std::string("x"), "y", "z", "w"}));
  EXPECT_EQ(space.size(), 12u);
  EXPECT_EQ(space.dims(), 2u);

  // Row-major: the last axis varies fastest (nested-loop order).
  EXPECT_EQ(space.at(0).integer("a"), 1);
  EXPECT_EQ(space.at(0).str("b"), "x");
  EXPECT_EQ(space.at(1).integer("a"), 1);
  EXPECT_EQ(space.at(1).str("b"), "y");
  EXPECT_EQ(space.at(4).integer("a"), 2);
  EXPECT_EQ(space.at(4).str("b"), "x");
  EXPECT_EQ(space.at(11).integer("a"), 3);
  EXPECT_EQ(space.at(11).str("b"), "w");
  EXPECT_THROW((void)space.at(12), std::out_of_range);
}

TEST(ParamSpace, ZipAdvancesTogetherAndChecksLengths) {
  const auto space =
      sw::ParamSpace()
          .zip({sw::Axis::list("label", {std::string("lo"), "mid", "hi"}),
                sw::Axis::list("value", std::vector<double>{0.1, 1.0, 10.0})})
          .cross(sw::Axis::list("rep", std::vector<std::int64_t>{0, 1}));
  EXPECT_EQ(space.size(), 6u); // zip counts once, cross multiplies
  const auto p = space.at(2); // (label=mid, value=1.0, rep=0)
  EXPECT_EQ(p.str("label"), "mid");
  EXPECT_EQ(p.number("value"), 1.0);
  EXPECT_EQ(p.integer("rep"), 0);

  sw::ParamSpace bad;
  EXPECT_THROW(bad.zip({sw::Axis::list("a", std::vector<double>{1.0}),
                        sw::Axis::list("b", std::vector<double>{1.0, 2.0})}),
               std::invalid_argument);
}

TEST(ParamSpace, CrossOfSpacesAndDuplicateNames) {
  auto left = sw::ParamSpace().cross(
      sw::Axis::list("a", std::vector<std::int64_t>{1, 2}));
  const auto right = sw::ParamSpace::of(
      {sw::Axis::list("b", std::vector<std::int64_t>{10, 20, 30})});
  left.cross(right);
  EXPECT_EQ(left.size(), 6u);
  EXPECT_EQ(left.names(), (std::vector<std::string>{"a", "b"}));

  EXPECT_THROW(left.cross(sw::Axis::list("a", std::vector<double>{1.0})),
               std::invalid_argument);
}

TEST(ParamSpace, EmptySpaceHasOnePointAndEmptyAxisNone) {
  EXPECT_EQ(sw::ParamSpace().size(), 1u);
  EXPECT_EQ(sw::ParamSpace().at(0).size(), 0u);
  const auto none = sw::ParamSpace().cross(
      sw::Axis::list("a", std::vector<double>{}));
  EXPECT_EQ(none.size(), 0u);
}

TEST(Point, TypedAccessorsAndKey) {
  const auto space =
      sw::ParamSpace()
          .cross(sw::Axis::list("n", std::vector<std::int64_t>{7}))
          .cross(sw::Axis::list("x", std::vector<double>{2.5}))
          .cross(sw::Axis::list("s", {std::string("tag")}));
  const auto p = space.at(0);
  EXPECT_EQ(p.integer("n"), 7);
  EXPECT_EQ(p.number("n"), 7.0); // int converts to number
  EXPECT_EQ(p.number("x"), 2.5);
  EXPECT_EQ(p.str("s"), "tag");
  EXPECT_THROW((void)p.number("s"), std::invalid_argument);
  EXPECT_THROW((void)p.integer("x"), std::invalid_argument);
  EXPECT_THROW((void)p.at("missing"), std::out_of_range);
  EXPECT_EQ(p.key(), "n=i7;x=d2.5;s=stag;");
}

TEST(Point, KeyIsInjectiveAcrossValueTypes) {
  // int64 1 and double 1.0 print identically but must key differently —
  // the persistent result cache's identity rides on this.
  const auto ints = sw::ParamSpace().cross(
      sw::Axis::list("v", std::vector<std::int64_t>{1}));
  const auto reals =
      sw::ParamSpace().cross(sw::Axis::list("v", std::vector<double>{1.0}));
  const auto texts =
      sw::ParamSpace().cross(sw::Axis::list("v", {std::string("1")}));
  EXPECT_NE(ints.at(0).key(), reals.at(0).key());
  EXPECT_NE(ints.at(0).key(), texts.at(0).key());
  EXPECT_NE(reals.at(0).key(), texts.at(0).key());
}

TEST(Point, KeyEscapesSeparatorInjection) {
  // A string value containing the separator characters must not collide
  // with the coordinate structure it could otherwise forge.
  const auto forged = sw::ParamSpace().cross(
      sw::Axis::list("a", {std::string("1;b=s2")}));
  const auto honest =
      sw::ParamSpace()
          .cross(sw::Axis::list("a", {std::string("1")}))
          .cross(sw::Axis::list("b", {std::string("2")}));
  EXPECT_NE(forged.at(0).key(), honest.at(0).key());
  EXPECT_EQ(forged.at(0).key(), "a=s1\\;b\\=s2;");

  // Names escape too, and backslashes stay unambiguous.
  const auto tricky = sw::ParamSpace().cross(
      sw::Axis::list("a=b;c", {std::string("x\\y")}));
  EXPECT_EQ(tricky.at(0).key(), "a\\=b\\;c=sx\\\\y;");
}

TEST(Point, KeySeparatesAdjacentDoubles) {
  const double lo = 1.0;
  const double hi = std::nextafter(1.0, 2.0);
  const auto a =
      sw::ParamSpace().cross(sw::Axis::list("x", std::vector<double>{lo}));
  const auto b =
      sw::ParamSpace().cross(sw::Axis::list("x", std::vector<double>{hi}));
  EXPECT_NE(a.at(0).key(), b.at(0).key()); // %.17g keeps them apart
}

TEST(Point, KeyRoundTripsThroughItsDocumentedGrammar) {
  // Parse a key back per the contract in src/sweep/README.md:
  //   key := coord* ; coord := esc(name) '=' tag text ';'
  // and recover the original (name, tag, text) triples.
  const auto space =
      sw::ParamSpace()
          .cross(sw::Axis::list("n;1", std::vector<std::int64_t>{-3}))
          .cross(sw::Axis::list("x", std::vector<double>{0.5}))
          .cross(sw::Axis::list("s", {std::string(";=\\")}));
  const std::string key = space.at(0).key();

  std::string cur;
  std::vector<std::string> parts; // alternating name, tagged-value
  for (std::size_t i = 0; i < key.size(); ++i) {
    const char c = key[i];
    if (c == '\\') {
      ASSERT_LT(i + 1, key.size());
      cur += key[++i];
    } else if (c == '=' || c == ';') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  ASSERT_TRUE(cur.empty()); // key ends on ';'
  ASSERT_EQ(parts.size(), 6u);
  EXPECT_EQ(parts[0], "n;1");
  EXPECT_EQ(parts[1], "i-3");
  EXPECT_EQ(parts[2], "x");
  EXPECT_EQ(parts[3], "d0.5");
  EXPECT_EQ(parts[4], "s");
  EXPECT_EQ(parts[5], "s;=\\");
}

namespace {

/// A stochastic evaluation: value depends on the point and on RNG draws,
/// so thread-count invariance is a real statement about the substreams.
sw::Experiment<double> stochastic_experiment() {
  return sw::make_experiment("stochastic",
                             [](const sw::Point& p, mss::util::Rng& rng) {
                               double acc = p.number("x");
                               for (int k = 0; k < 16; ++k) acc += rng.normal();
                               return acc;
                             });
}

} // namespace

TEST(Runner, BitIdenticalForAnyThreadCount) {
  const auto space = sw::ParamSpace().cross(sw::Axis::linear("x", 0.0, 1.0, 97));
  sw::RunOptions serial;
  serial.threads = 1;
  auto pooled = serial;
  pooled.threads = 8;
  const auto a = sw::Runner(serial).run(space, stochastic_experiment());
  const auto b = sw::Runner(pooled).run(space, stochastic_experiment());
  ASSERT_EQ(a.size(), 97u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "point " << i; // bit-identical doubles
  }
}

TEST(Runner, SeedSelectsTheStreams) {
  const auto space = sw::ParamSpace().cross(sw::Axis::linear("x", 0.0, 1.0, 8));
  sw::RunOptions one;
  one.seed = 1;
  sw::RunOptions two;
  two.seed = 2;
  const auto a = sw::Runner(one).run(space, stochastic_experiment());
  const auto b = sw::Runner(two).run(space, stochastic_experiment());
  bool any_differ = false;
  for (std::size_t i = 0; i < a.size(); ++i) any_differ |= a[i] != b[i];
  EXPECT_TRUE(any_differ);
}

TEST(PointRng, DistinctKeysGetDistinctFirstDraws) {
  // Int, double and string coordinates, 3 x 12 x 4 = 144 distinct keys.
  const auto space =
      sw::ParamSpace()
          .cross(sw::Axis::list("n", std::vector<std::int64_t>{-1, 0, 7}))
          .cross(sw::Axis::linear("x", -1.0, 1.0, 12))
          .cross(sw::Axis::list("s", std::vector<std::string>{"", "a", "b",
                                                              "a;b"}));
  constexpr std::uint64_t kSeed = 42;
  std::set<std::uint64_t> first_draws;
  for (std::size_t i = 0; i < space.size(); ++i) {
    first_draws.insert(sw::point_rng(kSeed, space.at(i)).next_u64());
  }
  EXPECT_EQ(first_draws.size(), space.size());
}

// A point draws from its key, not its flat index: a duplicated point gets
// the same result at both indices, and a subspace's results equal the
// superspace's at the same points.
TEST(Runner, ResultIsAFunctionOfThePointNotItsIndex) {
  const auto dup = sw::ParamSpace().cross(
      sw::Axis::list("x", std::vector<double>{0.1, 0.2, 0.3, 0.1}));
  const auto d = sw::Runner().run(dup, stochastic_experiment());
  EXPECT_EQ(d[0], d[3]); // bit-identical doubles
  EXPECT_NE(d[0], d[1]);

  const auto sub = sw::ParamSpace().cross(
      sw::Axis::list("x", std::vector<double>{0.3, 0.2}));
  const auto s = sw::Runner().run(sub, stochastic_experiment());
  EXPECT_EQ(s[0], d[2]);
  EXPECT_EQ(s[1], d[1]);
}

TEST(Runner, TableAssemblesRowsInSpaceOrder) {
  const auto space = sw::ParamSpace().cross(
      sw::Axis::list("n", std::vector<std::int64_t>{3, 1, 2}));
  const auto exp = sw::make_experiment(
      "sq", [](const sw::Point& p, mss::util::Rng&) {
        return p.integer("n") * p.integer("n");
      });
  auto t = sw::Runner().table(
      space, exp, {"n", "n_squared"},
      [](const sw::Point& p, std::int64_t r) {
        return std::vector<sw::Value>{p.integer("n"), r};
      });
  ASSERT_EQ(t.rows(), 3u);
  EXPECT_EQ(std::get<std::int64_t>(t.at(0, "n_squared")), 9);
  EXPECT_EQ(std::get<std::int64_t>(t.at(1, "n")), 1);
  EXPECT_EQ(std::get<std::int64_t>(t.at(2, "n_squared")), 4);
}

TEST(ResultTable, AccessorsAndShapeChecks) {
  sw::ResultTable t({"name", "v"});
  t.add_row({std::string("b"), 2.0});
  t.add_row({std::string("a"), 3.0});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(std::get<std::string>(t.at(1, "name")), "a");
  EXPECT_EQ(t.number(0, "v"), 2.0);
  EXPECT_THROW((void)t.col_index("missing"), std::out_of_range);
  EXPECT_THROW(t.add_row({std::string("short")}), std::invalid_argument);
}

TEST(ResultTable, CsvAndJsonEmission) {
  sw::ResultTable t({"kernel", "ratio", "count"});
  t.add_row({std::string("body,track"), 0.5, std::int64_t(4)});
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("kernel,ratio,count"), std::string::npos);
  EXPECT_NE(csv.find("\"body,track\""), std::string::npos) << csv;
  const std::string json = t.json();
  EXPECT_NE(json.find("\"kernel\": \"body,track\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ratio\": 0.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 4"), std::string::npos) << json;
}
