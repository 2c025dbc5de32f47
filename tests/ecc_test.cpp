// Tests of the ECC block-failure model behind Fig. 8.
#include "vaet/ecc.hpp"

#include <cmath>
#include <gtest/gtest.h>

namespace mv = mss::vaet;

TEST(Ecc, CheckBitsGrowLinearlyWithT) {
  mv::EccScheme s;
  s.data_bits = 512;
  s.t_correct = 0;
  EXPECT_EQ(s.check_bits(), 0u);
  s.t_correct = 1;
  const unsigned r1 = s.check_bits();
  s.t_correct = 2;
  EXPECT_EQ(s.check_bits(), 2 * r1);
  s.t_correct = 4;
  EXPECT_EQ(s.check_bits(), 4 * r1);
  EXPECT_EQ(s.codeword_bits(), 512u + 4 * r1);
  EXPECT_GT(s.overhead(), 0.0);
}

TEST(Ecc, NoCorrectionMatchesUnionBound) {
  // t = 0: failure = 1 - (1-p)^n ~ n p for small p.
  mv::EccScheme s;
  s.data_bits = 512;
  s.t_correct = 0;
  const double log_p = std::log(1e-12);
  const double lf = mv::log_codeword_failure(s, log_p);
  EXPECT_NEAR(lf, std::log(512.0) + log_p, 1e-6);
}

TEST(Ecc, CorrectionCapabilityShrinksFailure) {
  mv::EccScheme s;
  s.data_bits = 512;
  const double log_p = std::log(1e-6);
  double prev = 1.0;
  for (unsigned t = 0; t <= 4; ++t) {
    s.t_correct = t;
    const double lf = mv::log_codeword_failure(s, log_p);
    EXPECT_LT(lf, prev);
    prev = lf;
  }
}

TEST(Ecc, MatchesExactBinomialSmallCase) {
  // Tiny code: n = 8 (data 4 + check 4 via construction not used here);
  // verify against direct enumeration using a 4-bit data word, t=1.
  mv::EccScheme s;
  s.data_bits = 4;
  s.t_correct = 1;
  const unsigned n = s.codeword_bits();
  const double p = 0.05;
  double direct = 0.0;
  for (unsigned k = 2; k <= n; ++k) {
    const double log_choose =
        std::lgamma(n + 1.0) - std::lgamma(k + 1.0) - std::lgamma(n - k + 1.0);
    direct += std::exp(log_choose) * std::pow(p, k) * std::pow(1.0 - p, n - k);
  }
  EXPECT_NEAR(mv::log_codeword_failure(s, std::log(p)), std::log(direct),
              1e-9);
}

TEST(Ecc, AllowedPBitRoundTrips) {
  mv::EccScheme s;
  s.data_bits = 512;
  for (unsigned t : {0u, 1u, 2u, 3u}) {
    s.t_correct = t;
    const double target = std::log(1e-18);
    const double lp = mv::allowed_log_p_bit(s, target);
    EXPECT_NEAR(mv::log_codeword_failure(s, lp), target, 1e-6) << t;
  }
}

TEST(Ecc, StrongerCodeToleratesHigherRawBer) {
  // This is the mechanism of Fig. 8: each extra corrected bit relaxes the
  // per-bit WER the write pulse must reach.
  mv::EccScheme s;
  s.data_bits = 512;
  const double target = std::log(1e-18);
  double prev = -1e9;
  for (unsigned t = 0; t <= 4; ++t) {
    s.t_correct = t;
    const double lp = mv::allowed_log_p_bit(s, target);
    EXPECT_GT(lp, prev) << t;
    prev = lp;
  }
  // And the relaxation has diminishing returns: the step from 0->1
  // dominates later steps.
  s.t_correct = 0;
  const double lp0 = mv::allowed_log_p_bit(s, target);
  s.t_correct = 1;
  const double lp1 = mv::allowed_log_p_bit(s, target);
  s.t_correct = 2;
  const double lp2 = mv::allowed_log_p_bit(s, target);
  EXPECT_GT(lp1 - lp0, lp2 - lp1);
}

TEST(Ecc, RejectsBadArguments) {
  mv::EccScheme s;
  EXPECT_THROW((void)mv::log_codeword_failure(s, 0.5), std::invalid_argument);
  EXPECT_THROW((void)mv::allowed_log_p_bit(s, 0.5), std::invalid_argument);
}
