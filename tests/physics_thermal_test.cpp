// Tests of the analytic (behavioural) switching statistics.
#include "physics/thermal.hpp"

#include <cmath>
#include <gtest/gtest.h>

namespace mp = mss::physics;

namespace {
mp::SwitchingParams sp() {
  mp::SwitchingParams p;
  p.delta = 60.0;
  p.ic0 = 40e-6;
  p.tau0 = 1e-9;
  p.alpha = 0.015;
  p.hk_eff = 2.0e5;
  return p;
}
} // namespace

TEST(NeelBrown, TauAtZeroCurrentIsRetention) {
  EXPECT_NEAR(mp::neel_brown_tau(sp(), 0.0), 1e-9 * std::exp(60.0), 1e-3);
  EXPECT_NEAR(mp::retention_time(sp()), 1e-9 * std::exp(60.0), 1e-3);
}

TEST(NeelBrown, TauDecreasesWithCurrent) {
  const auto p = sp();
  EXPECT_GT(mp::neel_brown_tau(p, 0.1), mp::neel_brown_tau(p, 0.5));
  EXPECT_GT(mp::neel_brown_tau(p, 0.5), mp::neel_brown_tau(p, 0.9));
  EXPECT_THROW((void)mp::neel_brown_tau(p, 1.1), std::invalid_argument);
}

TEST(NeelBrown, SwitchProbabilityIncreasesWithTime) {
  const auto p = sp();
  // P_switch = 1 - WER.
  const double p1 = 1.0 - mp::write_error_rate(p, 0.8, 1e-6);
  const double p2 = 1.0 - mp::write_error_rate(p, 0.8, 1e-3);
  EXPECT_LT(p1, p2);
  EXPECT_GE(p1, 0.0);
  EXPECT_LE(p2, 1.0);
}

TEST(Precessional, TauShrinksWithOverdrive) {
  const auto p = sp();
  EXPECT_GT(mp::precessional_tau(p, 1.5), mp::precessional_tau(p, 3.0));
  EXPECT_THROW((void)mp::precessional_tau(p, 0.9), std::invalid_argument);
}

TEST(Precessional, SwitchProbabilitySaturatesToOne) {
  const auto p = sp();
  // P_switch = 1 - WER.
  EXPECT_LT(1.0 - mp::write_error_rate(p, 2.0, 1e-12), 1e-6);
  EXPECT_GT(1.0 - mp::write_error_rate(p, 2.0, 50e-9), 1.0 - 1e-12);
}

TEST(Wer, DecreasesMonotonicallyWithPulseWidth) {
  const auto p = sp();
  double prev = 1.0;
  for (double t = 0.5e-9; t < 30e-9; t += 0.5e-9) {
    const double w = mp::write_error_rate(p, 2.0, t);
    EXPECT_LE(w, prev + 1e-15);
    prev = w;
  }
}

TEST(Wer, LogFormMatchesLinearFormWhereRepresentable) {
  const auto p = sp();
  for (double t : {1e-9, 3e-9, 6e-9}) {
    const double w = mp::write_error_rate(p, 2.0, t);
    const double lw = mp::log_write_error_rate(p, 2.0, t);
    if (w > 1e-290 && w < 1.0) {
      EXPECT_NEAR(std::log(w), lw, 1e-9 * std::abs(lw) + 1e-12) << t;
    }
  }
}

TEST(Wer, ZeroPulseMeansCertainError) {
  EXPECT_EQ(mp::log_write_error_rate(sp(), 2.0, 0.0), 0.0);
  EXPECT_EQ(mp::write_error_rate(sp(), 2.0, -1.0), 1.0);
}

TEST(Wer, PulseWidthForWerRoundTrips) {
  const auto p = sp();
  for (double target : {1e-3, 1e-9, 1e-15, 1e-20}) {
    const double t = mp::pulse_width_for_wer(p, 2.0, target);
    EXPECT_GT(t, 0.0);
    const double back = mp::log_write_error_rate(p, 2.0, t);
    EXPECT_NEAR(back, std::log(target), 1e-6) << target;
  }
}

TEST(Wer, ActivatedRegimeRoundTrips) {
  const auto p = sp();
  const double t = mp::pulse_width_for_wer(p, 0.9, 1e-6);
  EXPECT_NEAR(mp::write_error_rate(p, 0.9, t), 1e-6, 1e-9);
}

TEST(Wer, TighterTargetNeedsLongerPulse) {
  const auto p = sp();
  const double t5 = mp::pulse_width_for_wer(p, 2.0, 1e-5);
  const double t10 = mp::pulse_width_for_wer(p, 2.0, 1e-10);
  const double t15 = mp::pulse_width_for_wer(p, 2.0, 1e-15);
  EXPECT_LT(t5, t10);
  EXPECT_LT(t10, t15);
  // Log-linear spacing: equal decade steps give roughly equal time steps.
  EXPECT_NEAR((t15 - t10) / (t10 - t5), 1.0, 0.15);
}

TEST(NominalSwitchingTime, FasterWithMoreCurrent) {
  const auto p = sp();
  EXPECT_GT(mp::nominal_switching_time(p, 1.5),
            mp::nominal_switching_time(p, 3.0));
  // Sub-critical nominal time is the activated median.
  const double t_sub = mp::nominal_switching_time(p, 0.5);
  EXPECT_NEAR(t_sub, mp::neel_brown_tau(p, 0.5) * M_LN2, 1e-6);
}

TEST(ReadDisturb, IncreasesWithReadPeriodAndCurrent) {
  const auto p = sp();
  const double d1 = mp::read_disturb_probability(p, 0.4, 5e-9);
  const double d2 = mp::read_disturb_probability(p, 0.4, 50e-9);
  const double d3 = mp::read_disturb_probability(p, 0.6, 50e-9);
  EXPECT_LT(d1, d2);
  EXPECT_LT(d2, d3);
  EXPECT_THROW((void)mp::read_disturb_probability(p, 1.2, 1e-9),
               std::invalid_argument);
}
