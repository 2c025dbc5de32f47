// Unit tests for streaming stats, quantiles and histograms.
#include "util/stats.hpp"

#include <cmath>
#include <gtest/gtest.h>

namespace mu = mss::util;

TEST(RunningStats, MatchesDirectComputation) {
  mu::RunningStats st;
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  for (double x : xs) st.add(x);
  EXPECT_EQ(st.count(), 5u);
  EXPECT_NEAR(st.mean(), 6.2, 1e-12);
  EXPECT_NEAR(st.sum(), 31.0, 1e-12);
  EXPECT_NEAR(st.min(), 1.0, 1e-12);
  EXPECT_NEAR(st.max(), 16.0, 1e-12);
  // Unbiased variance of {1,2,4,8,16}.
  double m = 6.2, acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  EXPECT_NEAR(st.variance(), acc / 4.0, 1e-10);
}

TEST(RunningStats, EmptyAndSingle) {
  mu::RunningStats st;
  EXPECT_EQ(st.count(), 0u);
  EXPECT_EQ(st.mean(), 0.0);
  EXPECT_EQ(st.variance(), 0.0);
  st.add(3.0);
  EXPECT_EQ(st.variance(), 0.0);
  EXPECT_EQ(st.mean(), 3.0);
}

TEST(RunningStats, MergeEqualsCombined) {
  mu::RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 0.7) * 10.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_NEAR(a.min(), all.min(), 1e-12);
  EXPECT_NEAR(a.max(), all.max(), 1e-12);
}

TEST(Quantile, InterpolatesSorted) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_NEAR(mu::quantile(v, 0.0), 10.0, 1e-12);
  EXPECT_NEAR(mu::quantile(v, 1.0), 50.0, 1e-12);
  EXPECT_NEAR(mu::quantile(v, 0.5), 30.0, 1e-12);
  EXPECT_NEAR(mu::quantile(v, 0.25), 20.0, 1e-12);
  EXPECT_THROW((void)mu::quantile(std::vector<double>{}, 0.5),
               std::invalid_argument);
}

TEST(Histogram, CountsAndDensity) {
  mu::Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(0.05 + (i % 10));
  EXPECT_EQ(h.total(), 100u);
  for (std::size_t b = 0; b < 10; ++b) {
    EXPECT_EQ(h.counts()[b], 10u) << b;
    EXPECT_NEAR(h.density(b), 0.1, 1e-12);
  }
  EXPECT_NEAR(h.center(0), 0.5, 1e-12);
}

TEST(Histogram, ClampsOutOfRange) {
  mu::Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(7.0);
  EXPECT_EQ(h.counts().front(), 1u);
  EXPECT_EQ(h.counts().back(), 1u);
}
