// Transient-analysis validation: RC networks against closed forms,
// initial conditions, and the MTJ element dynamics.
#include <cmath>
#include <gtest/gtest.h>

#include <memory>

#include "core/pdk.hpp"
#include "spice/elements.hpp"
#include "spice/engine.hpp"
#include "spice/mtj_element.hpp"

namespace ms = mss::spice;

namespace {

/// Builds a step-driven RC low-pass: v(in) steps 0->1 at 1 ns, R=1k, C=1p.
ms::Circuit rc_circuit() {
  ms::Circuit ckt;
  const int in = ckt.node("in");
  const int out = ckt.node("out");
  ckt.add(std::make_unique<ms::VoltageSource>(
      "vin", in, ms::kGround,
      std::make_unique<ms::PulseWave>(0.0, 1.0, 1e-9, 10e-12, 10e-12,
                                      100e-9)));
  ckt.add(std::make_unique<ms::Resistor>("r1", in, out, 1e3));
  ckt.add(std::make_unique<ms::Capacitor>("c1", out, ms::kGround, 1e-12));
  return ckt;
}

} // namespace

TEST(Transient, RcStepMatchesAnalyticTrapezoidal) {
  auto ckt = rc_circuit();
  ms::Engine eng(ckt);
  const auto tr = eng.transient(6e-9, 10e-12);
  ASSERT_TRUE(tr.converged());
  // tau = 1 ns; check v(out) against 1 - exp(-t/tau) at several points.
  for (double t_after : {0.5e-9, 1.0e-9, 2.0e-9, 4.0e-9}) {
    const double t = 1e-9 + 10e-12 + t_after; // step start + edge
    const auto k = static_cast<std::size_t>(std::llround(t / 10e-12));
    const double expected = 1.0 - std::exp(-t_after / 1e-9);
    EXPECT_NEAR(tr.v("out", k), expected, 0.02) << t_after;
  }
}

TEST(Transient, CapacitorInitialConditionHolds) {
  ms::Circuit ckt;
  const int a = ckt.node("a");
  ckt.add(std::make_unique<ms::Resistor>("r1", a, ms::kGround, 1e6));
  ckt.add(std::make_unique<ms::Capacitor>("c1", a, ms::kGround, 1e-12, 0.8));
  ms::Engine eng(ckt);
  const auto tr = eng.transient(1e-9, 1e-12, /*use_initial_conditions=*/true);
  // tau = 1 us >> 1 ns: voltage barely decays from the IC.
  EXPECT_NEAR(tr.v("a", tr.size() - 1), 0.8, 0.01);
}

TEST(Transient, EnergyConservationInRcCharge) {
  // Charging a capacitor through a resistor: the source delivers C*V^2,
  // half stored, half dissipated.
  ms::Circuit ckt;
  const int in = ckt.node("in");
  const int out = ckt.node("out");
  ckt.add(std::make_unique<ms::VoltageSource>(
      "vin", in, ms::kGround,
      std::make_unique<ms::PulseWave>(0.0, 1.0, 0.1e-9, 10e-12, 10e-12,
                                      100e-9)));
  ckt.add(std::make_unique<ms::Resistor>("r1", in, out, 1e3));
  ckt.add(std::make_unique<ms::Capacitor>("c1", out, ms::kGround, 1e-12));
  ms::Engine eng(ckt);
  const auto tr = eng.transient(20e-9, 5e-12);
  // E = integral of v*(-i) dt ~ C * V^2 = 1e-12 J.
  double e = 0.0;
  const auto& times = tr.times();
  for (std::size_t k = 1; k < times.size(); ++k) {
    const double dt = times[k] - times[k - 1];
    e += 0.5 *
         (-tr.v("in", k) * tr.i("vin", k) -
          tr.v("in", k - 1) * tr.i("vin", k - 1)) *
         dt;
  }
  EXPECT_NEAR(e / 1e-12, 1.0, 0.05);
}

TEST(Transient, RejectsBadTiming) {
  auto ckt = rc_circuit();
  ms::Engine eng(ckt);
  EXPECT_THROW((void)eng.transient(0.0, 1e-12), std::invalid_argument);
  EXPECT_THROW((void)eng.transient(1e-9, -1.0), std::invalid_argument);
  EXPECT_THROW((void)eng.transient(1e-9, 2e-9), std::invalid_argument);
}

TEST(Transient, UnknownSignalNamesThrow) {
  auto ckt = rc_circuit();
  ms::Engine eng(ckt);
  const auto tr = eng.transient(1e-9, 1e-11);
  EXPECT_THROW((void)tr.v("nope", 0), std::out_of_range);
  EXPECT_THROW((void)tr.current("nope"), std::out_of_range);
  EXPECT_EQ(tr.v("0", 0), 0.0);
  EXPECT_TRUE(tr.has_node("out"));
  EXPECT_FALSE(tr.has_node("nope"));
  EXPECT_TRUE(tr.has_source("vin"));
}

TEST(MtjElement, CurrentPulseWritesParallel) {
  const auto pdk = mss::core::Pdk::mss45();
  ms::Circuit ckt;
  const int top = ckt.node("top");
  // Free terminal on 'top', reference grounded: positive current
  // top -> gnd writes parallel.
  auto* mtj = ckt.add(std::make_unique<ms::MtjDevice>(
      "x1", top, ms::kGround, pdk.mtj, mss::core::MtjState::Antiparallel));
  const double i_write = 2.5 * pdk.mtj.ic0();
  ckt.add(std::make_unique<ms::CurrentSource>(
      "iw", ms::kGround, top,
      std::make_unique<ms::PulseWave>(0.0, i_write, 1e-9, 50e-12, 50e-12,
                                      20e-9)));
  ms::Engine eng(ckt);
  (void)eng.transient(25e-9, 20e-12);
  EXPECT_EQ(mtj->state(), mss::core::MtjState::Parallel);
  ASSERT_FALSE(mtj->flip_times().empty());
  EXPECT_GT(mtj->flip_times().front(), 1e-9);
}

TEST(MtjElement, ReadLevelCurrentDoesNotFlip) {
  const auto pdk = mss::core::Pdk::mss45();
  ms::Circuit ckt;
  const int top = ckt.node("top");
  auto* mtj = ckt.add(std::make_unique<ms::MtjDevice>(
      "x1", top, ms::kGround, pdk.mtj, mss::core::MtjState::Antiparallel));
  const double i_read = 0.3 * pdk.mtj.ic0();
  ckt.add(std::make_unique<ms::CurrentSource>(
      "ir", ms::kGround, top,
      std::make_unique<ms::PulseWave>(0.0, i_read, 1e-9, 50e-12, 50e-12,
                                      20e-9)));
  ms::Engine eng(ckt);
  (void)eng.transient(25e-9, 20e-12);
  EXPECT_EQ(mtj->state(), mss::core::MtjState::Antiparallel);
  EXPECT_TRUE(mtj->flip_times().empty());
}

TEST(MtjElement, ResetRestoresInitialState) {
  const auto pdk = mss::core::Pdk::mss45();
  ms::MtjDevice dev("x1", 0, ms::kGround, pdk.mtj,
                    mss::core::MtjState::Parallel);
  EXPECT_EQ(dev.state(), mss::core::MtjState::Parallel);
  dev.reset();
  EXPECT_EQ(dev.state(), mss::core::MtjState::Parallel);
  EXPECT_TRUE(dev.flip_times().empty());
}
