// Tests of the benchmark's own logic: the percentile rule, span self-time,
// failure accounting and seeded input generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common.hpp"

using namespace perfbench;

namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0); // 1..n
  return v;
}

Span span(std::uint64_t id, std::uint64_t parent, double t0, double t1) {
  return Span{id, parent, 0, "x", t0, t1};
}

} // namespace

TEST(TailPercentile, P90WhenTenSamplesLieBeyondIt) {
  const Tail t = tail_percentile(ramp(100));
  EXPECT_EQ(t.value, 90.0);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(TailPercentile, FallsBackToTheHighestRankKeepingTenBeyond) {
  const Tail t = tail_percentile(ramp(49));
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.value, 39.0);
  EXPECT_NEAR(t.percentile, 100.0 * 39.0 / 49.0, 1e-12);
}

TEST(TailPercentile, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v = ramp(200);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(tail_percentile(v).value, 180.0);
  EXPECT_EQ(tail_percentile(v).beyond, 20u);
}

TEST(TailPercentile, NeverFallsBelowTheMedian) {
  const Tail t = tail_percentile(ramp(14)); // rank 4 would keep 10 beyond
  EXPECT_EQ(t.value, 7.0);
  EXPECT_EQ(t.beyond, 7u);
}

TEST(TailPercentile, FewerThanElevenSamplesReportTheMaximum) {
  const Tail t = tail_percentile(ramp(7));
  EXPECT_EQ(t.value, 7.0);
  EXPECT_EQ(t.beyond, 0u);
  EXPECT_EQ(tail_percentile({}).value, 0.0);
  EXPECT_EQ(tail_percentile(ramp(11)).value, 6.0);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheSpan) {
  const std::vector<Span> spans = {
      span(1, 0, 0.0, 10.0),
      span(2, 1, 1.0, 3.0),  // covered 1..3
      span(3, 1, 2.0, 5.0),  // overlaps: union now 1..5
      span(4, 1, 9.0, 12.0), // clipped to 9..10
      span(5, 2, 1.0, 3.0),  // grandchild: not a direct child of 1
      span(6, 0, 4.0, 6.0),  // unrelated root
  };
  const auto self = self_times(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 0.0); // its only child covers it fully
  EXPECT_DOUBLE_EQ(self[3], 3.0); // a childless span is all self time
  EXPECT_DOUBLE_EQ(self[5], 2.0);
}

TEST(Tracer, DisabledRecordsNothingAndEnabledKeepsParents) {
  Tracer off(false);
  off.record("a.b", 0, 1, 1);
  off.count("c", 1);
  EXPECT_TRUE(off.spans().empty());
  EXPECT_TRUE(off.counters().empty());

  Tracer on(true);
  const auto parent = on.open();
  const auto child = on.record("layer.child", 1, 2, 7, parent);
  on.close(parent, "layer.parent", 0, 3, 7);
  on.count("n", 2);
  on.count("n", 3);
  const auto spans = on.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(parent, child);
  EXPECT_EQ(spans[0].parent, parent);
  EXPECT_EQ(spans[0].group, spans[1].group);
  EXPECT_EQ(on.counters().at("n"), 5.0);
  EXPECT_EQ(on.durations("layer.parent"), std::vector<double>{3.0});
  EXPECT_DOUBLE_EQ(self_times(spans)[1], 2.0);
}

TEST(FailureAccounting, FailedFracCountsEveryFailure) {
  Outcome o;
  o.attempted = 40;
  for (int i = 0; i < 10; ++i) o.fail("bad " + std::to_string(i));
  EXPECT_EQ(o.failed, 10u);
  EXPECT_EQ(o.failures.size(), 8u); // messages are capped, counts are not
  EXPECT_DOUBLE_EQ(failed_frac(o.attempted, o.failed), 0.25);
  EXPECT_EQ(failed_frac(0, 0), 0.0);
}

TEST(Generation, GenIsASeededPureFunction) {
  Gen a(42);
  Gen b(42);
  Gen c(43);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const auto x = a.next();
    EXPECT_EQ(x, b.next());
    differs = differs || x != c.next();
    const double u = a.uniform(4.0, 6.0);
    EXPECT_EQ(u, b.uniform(4.0, 6.0));
    EXPECT_GE(u, 4.0);
    EXPECT_LT(u, 6.0);
    EXPECT_LT(a.below(7), 7u);
    (void)b.below(7);
  }
  EXPECT_TRUE(differs);
}

TEST(Generation, EveryWorkloadsInputsAreDeterminedBySeed) {
  EXPECT_EQ(serve_cold_inputs(5, 10), serve_cold_inputs(5, 10));
  EXPECT_NE(serve_cold_inputs(5, 10), serve_cold_inputs(6, 10));
  EXPECT_EQ(serve_warm_inputs(5, 10), serve_warm_inputs(5, 10));
  EXPECT_NE(serve_warm_inputs(5, 10), serve_warm_inputs(6, 10));
  EXPECT_EQ(reliability_flow_inputs(5), reliability_flow_inputs(5));
  EXPECT_NE(reliability_flow_inputs(5), reliability_flow_inputs(6));
}

TEST(Generation, PassCountDependsOnlyOnRunLength) {
  EXPECT_EQ(passes_for(10, 0.7), 7u);
  EXPECT_EQ(passes_for(1, 0.7), 2u); // at least two passes to compare
  EXPECT_EQ(passes_for(10, 1.0), 10u);
}

TEST(Generation, TimeBudgetCutsOnlyAfterTwoPassesAndTwoRunLengths) {
  EXPECT_FALSE(over_budget({}, 10));
  EXPECT_FALSE(over_budget({30.0}, 10));       // one pass is never enough
  EXPECT_FALSE(over_budget({9.0, 10.0}, 10));  // 19 s of a 20 s budget
  EXPECT_TRUE(over_budget({9.0, 11.5}, 10));
}

TEST(Digest, DistinguishesBitsAndFieldBoundaries) {
  EXPECT_NE(Digest().add(0.0).value(), Digest().add(-0.0).value());
  EXPECT_NE(Digest().add("ab").add("c").value(),
            Digest().add("a").add("bc").value());
  EXPECT_EQ(Digest().add(std::uint64_t(7)).hex().size(), 16u);
}
