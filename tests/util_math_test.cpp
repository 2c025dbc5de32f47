// Unit tests for the numerical toolbox.
#include "util/math.hpp"

#include <cmath>
#include <gtest/gtest.h>

namespace mu = mss::util;

namespace {

/// log C(n, k) — the reference the binomial-tail tests sum with.
double log_choose(unsigned n, unsigned k) {
  return std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
         std::lgamma(n - k + 1.0);
}

} // namespace

TEST(NormalSf, DeepTailDoesNotUnderflowEarly) {
  // Q(10) ~ 7.62e-24; naive 1 - Phi(x) would return 0 past x ~ 8.2.
  EXPECT_NEAR(mu::normal_sf(10.0) / 7.619853e-24, 1.0, 1e-4);
  EXPECT_GT(mu::normal_sf(30.0), 0.0);
  EXPECT_LT(mu::normal_sf(30.0), 1e-190);
}

TEST(Log1mExp, MatchesReferenceAcrossBranches) {
  // log(1 - e^x): exercise both branches around -ln 2. (The naive
  // log1p(-exp(x)) reference itself loses precision below ~1e-8, so tiny
  // arguments are checked separately against the series expansion.)
  for (double x : {-1e-3, -0.5, -0.6931, -0.7, -5.0, -50.0}) {
    const double ref = std::log1p(-std::exp(x));
    EXPECT_NEAR(mu::log1mexp(x), ref, 1e-10 * std::abs(ref) + 1e-12) << x;
  }
  // Series: log(1-e^x) = log(-x) + x/2 + O(x^2) for x -> 0-.
  const double x = -1e-12;
  EXPECT_NEAR(mu::log1mexp(x), std::log(-x) + x / 2.0, 1e-9);
  EXPECT_THROW((void)mu::log1mexp(0.5), std::invalid_argument);
}

TEST(LogBinomialSf, MatchesDirectSummation) {
  // n = 20, p = 0.1, t = 2: P(X > 2) computed directly.
  const unsigned n = 20;
  const double p = 0.1;
  double direct = 0.0;
  for (unsigned k = 3; k <= n; ++k) {
    direct += std::exp(log_choose(n, k)) * std::pow(p, k) *
              std::pow(1.0 - p, n - k);
  }
  EXPECT_NEAR(mu::log_binomial_sf(n, 2, std::log(p)), std::log(direct), 1e-9);
}

TEST(LogBinomialSf, TinyPDominatedByFirstTerm) {
  // For p -> 0: P(X > t) ~ C(n, t+1) p^(t+1).
  const unsigned n = 512;
  const double log_p = std::log(1e-12);
  const double expect = log_choose(n, 3) + 3.0 * log_p;
  EXPECT_NEAR(mu::log_binomial_sf(n, 2, log_p), expect, 1e-6);
}

TEST(LogBinomialSf, DegenerateCases) {
  EXPECT_EQ(mu::log_binomial_sf(4, 4, std::log(0.5)),
            -std::numeric_limits<double>::infinity());
}

TEST(Bisect, FindsRootOfMonotone) {
  const double r = mu::bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  EXPECT_NEAR(r, std::sqrt(2.0), 1e-9);
}

TEST(Bisect, RejectsNonBracketing) {
  EXPECT_THROW(
      (void)mu::bisect([](double x) { return x + 10.0; }, 0.0, 1.0),
      std::invalid_argument);
}

TEST(BisectExpand, GrowsUpperBound) {
  const double r = mu::bisect_expand(
      [](double x) { return std::log(x) - 6.0; }, 0.5, 1.0);
  EXPECT_NEAR(r, std::exp(6.0), 1e-5 * std::exp(6.0));
}

TEST(GaussHermite, IntegratesGaussianMoments) {
  const mu::GaussHermite gh(24);
  // E[1] = 1, E[Z^2] = 1, E[Z^4] = 3 for Z ~ N(0,1).
  EXPECT_NEAR(gh.expect([](double) { return 1.0; }, 0.0, 1.0), 1.0, 1e-10);
  EXPECT_NEAR(gh.expect([](double z) { return z * z; }, 0.0, 1.0), 1.0, 1e-9);
  EXPECT_NEAR(gh.expect([](double z) { return z * z * z * z; }, 0.0, 1.0),
              3.0, 1e-8);
}

TEST(GaussHermite, LognormalMean) {
  const mu::GaussHermite gh(32);
  // E[e^Z] = e^{1/2}.
  EXPECT_NEAR(gh.expect([](double z) { return std::exp(z); }, 0.0, 1.0),
              std::exp(0.5), 1e-6);
  // With mu/sigma: E[e^{mu + s Z}] = e^{mu + s^2/2}.
  EXPECT_NEAR(gh.expect([](double z) { return std::exp(z); }, 0.2, 0.3),
              std::exp(0.2 + 0.045), 1e-8);
}

TEST(GaussHermite, NodesAscendAndRejectsBadN) {
  const mu::GaussHermite gh(16);
  for (std::size_t i = 1; i < gh.nodes.size(); ++i) {
    EXPECT_LT(gh.nodes[i - 1], gh.nodes[i]);
  }
  EXPECT_THROW(mu::GaussHermite(0), std::invalid_argument);
  EXPECT_THROW(mu::GaussHermite(65), std::invalid_argument);
}
