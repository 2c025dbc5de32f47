// Tests of the memory-mode compact model, including the cross-validation
// of the behavioural (closed-form) and physical (LLGS) strategies.
#include "core/compact_model.hpp"

#include <cmath>
#include <gtest/gtest.h>

namespace mc = mss::core;

namespace {
mc::MtjCompactModel model() { return mc::MtjCompactModel(mc::MtjParams{}); }
} // namespace

TEST(CompactModel, ResistanceStatesAndBiasRollOff) {
  const auto m = model();
  const double rp = m.resistance(mc::MtjState::Parallel, 0.0);
  const double rap0 = m.resistance(mc::MtjState::Antiparallel, 0.0);
  const double rap_biased = m.resistance(mc::MtjState::Antiparallel, 0.5);
  EXPECT_GT(rap0, rp);
  EXPECT_LT(rap_biased, rap0);           // TMR rolls off with bias
  EXPECT_GT(rap_biased, rp);             // but never below R_P
  // At Vh the TMR halves.
  EXPECT_NEAR(m.tmr(m.params().v_h), m.params().tmr0 / 2.0, 1e-12);
  // R_P is bias-independent in this model.
  EXPECT_EQ(m.resistance(mc::MtjState::Parallel, 0.7), rp);
}

TEST(CompactModel, ConductanceAngleEndpoints) {
  const auto m = model();
  const double g_p = m.conductance_at_angle(1.0);
  const double g_ap = m.conductance_at_angle(-1.0);
  EXPECT_NEAR(g_p, 1.0 / m.resistance(mc::MtjState::Parallel), 1e-9);
  EXPECT_NEAR(g_ap, 1.0 / m.resistance(mc::MtjState::Antiparallel), 1e-9);
  // Midpoint is the mean conductance.
  EXPECT_NEAR(m.conductance_at_angle(0.0), 0.5 * (g_p + g_ap), 1e-9);
  EXPECT_THROW((void)m.conductance_at_angle(1.5), std::invalid_argument);
}

TEST(CompactModel, CriticalCurrentAsymmetry) {
  const auto m = model();
  EXPECT_GT(m.critical_current(mc::WriteDirection::ToAntiparallel),
            m.critical_current(mc::WriteDirection::ToParallel));
}

TEST(CompactModel, SwitchingTimeShrinksWithCurrent) {
  const auto m = model();
  const double ic = m.critical_current(mc::WriteDirection::ToAntiparallel);
  const double t15 = m.switching_time(mc::WriteDirection::ToAntiparallel, 1.5 * ic);
  const double t30 = m.switching_time(mc::WriteDirection::ToAntiparallel, 3.0 * ic);
  EXPECT_GT(t15, t30);
  EXPECT_GT(t30, 0.1e-9);
  EXPECT_LT(t15, 100e-9);
}

TEST(CompactModel, WerRoundTrip) {
  const auto m = model();
  const double ic = m.critical_current(mc::WriteDirection::ToAntiparallel);
  const double i = 2.0 * ic;
  const double t = m.pulse_width_for_wer(mc::WriteDirection::ToAntiparallel,
                                         i, 1e-12);
  const double back =
      m.log_write_error_rate(mc::WriteDirection::ToAntiparallel, i, t);
  EXPECT_NEAR(back, std::log(1e-12), 1e-5);
}

TEST(CompactModel, ReadCurrentAndDisturb) {
  const auto m = model();
  const double ip = m.read_current(mc::MtjState::Parallel, 0.15);
  const double iap = m.read_current(mc::MtjState::Antiparallel, 0.15);
  EXPECT_GT(ip, iap);
  const double d_short = m.read_disturb_probability(0.4 * m.params().ic0(), 2e-9);
  const double d_long = m.read_disturb_probability(0.4 * m.params().ic0(), 50e-9);
  EXPECT_LT(d_short, d_long);
  EXPECT_GE(d_short, 0.0);
}

TEST(CompactModel, RetentionIsYearsForMemoryCorner) {
  const auto m = model();
  const double years = m.retention_time() / (365.25 * 24 * 3600);
  EXPECT_GT(years, 1.0); // memory-grade stack retains for years
}

TEST(CompactModel, WriteEnergyScalesWithPulse) {
  const auto m = model();
  const double ic = m.critical_current(mc::WriteDirection::ToAntiparallel);
  const double e1 = m.write_energy(mc::WriteDirection::ToAntiparallel,
                                   2.0 * ic, 5e-9);
  const double e2 = m.write_energy(mc::WriteDirection::ToAntiparallel,
                                   2.0 * ic, 10e-9);
  EXPECT_GT(e2, e1);
  EXPECT_GT(e1, 0.0);
}

TEST(CompactModel, LlgsWriteSwitchesAtHighOverdrive) {
  const auto m = model();
  mss::util::Rng rng(99);
  const double ic = m.critical_current(mc::WriteDirection::ToAntiparallel);
  const double t_nom =
      m.switching_time(mc::WriteDirection::ToAntiparallel, 2.5 * ic);
  const auto out = m.llgs_write(mc::WriteDirection::ToAntiparallel, 2.5 * ic,
                                4.0 * t_nom, rng, 2e-12);
  EXPECT_TRUE(out.switched);
  EXPECT_GT(out.energy, 0.0);
}

TEST(CompactModel, LlgsAgreesWithBehaviouralProbability) {
  // Cross-validation of the two Jabeur'14 strategies: at a pulse near the
  // nominal switching time the LLGS Monte-Carlo switching probability and
  // the closed-form value must agree qualitatively (both mid-range), and
  // at 3x the pulse both must be ~1.
  const auto m = model();
  mss::util::Rng rng(7);
  const double ic = m.critical_current(mc::WriteDirection::ToAntiparallel);
  const double i = 2.0 * ic;
  const double t_nom = m.switching_time(mc::WriteDirection::ToAntiparallel, i);

  const double p_long = m.llgs_switch_probability(
      mc::WriteDirection::ToAntiparallel, i, 3.0 * t_nom, 24, rng);
  EXPECT_GT(p_long, 0.9);

  const double p_short = m.llgs_switch_probability(
      mc::WriteDirection::ToAntiparallel, i, 0.3 * t_nom, 24, rng);
  EXPECT_LT(p_short, 0.5);
}

TEST(CompactModel, LlgsSwitchProbabilityThreadInvariant) {
  // The thread-pool sharded Monte-Carlo must be bit-identical for any
  // thread count: chunk-keyed jump substreams make each transient's draws
  // independent of scheduling, and the caller's RNG advances identically.
  const auto m = model();
  const double ic = m.critical_current(mc::WriteDirection::ToAntiparallel);
  const double i = 2.0 * ic;
  const double t = 2e-9;
  mss::util::Rng r1(123), r3(123), r8(123);
  const double p1 = m.llgs_switch_probability(
      mc::WriteDirection::ToAntiparallel, i, t, 18, r1, 1);
  const double p3 = m.llgs_switch_probability(
      mc::WriteDirection::ToAntiparallel, i, t, 18, r3, 3);
  const double p8 = m.llgs_switch_probability(
      mc::WriteDirection::ToAntiparallel, i, t, 18, r8, 8);
  EXPECT_EQ(p1, p3);
  EXPECT_EQ(p1, p8);
  // Post-call RNG state is part of the contract.
  const double d1 = r1.uniform(), d3 = r3.uniform(), d8 = r8.uniform();
  EXPECT_EQ(d1, d3);
  EXPECT_EQ(d1, d8);
}

TEST(CompactModel, LlgsRejectsZeroSamples) {
  const auto m = model();
  mss::util::Rng rng(1);
  EXPECT_THROW((void)m.llgs_switch_probability(
                   mc::WriteDirection::ToParallel, 1e-4, 1e-9, 0, rng),
               std::invalid_argument);
}
