// Transient-analysis validation: RC networks against closed forms,
// initial conditions, the probe contract (only probed signals are stored,
// probes resolve before the first step), and the MTJ element dynamics.
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
  const auto tr = eng.transient(6e-9, 10e-12, {"v(out)"});
  ASSERT_TRUE(tr.converged());
  // tau = 1 ns; check v(out) against 1 - exp(-t/tau) at several points.
  for (double t_after : {0.5e-9, 1.0e-9, 2.0e-9, 4.0e-9}) {
    const double t = 1e-9 + 10e-12 + t_after; // step start + edge
    const auto k = static_cast<std::size_t>(std::llround(t / 10e-12));
    const double expected = 1.0 - std::exp(-t_after / 1e-9);
    EXPECT_NEAR(tr.waveform("v(out)")[k], expected, 0.02) << t_after;
  }
}

TEST(Transient, CapacitorInitialConditionHolds) {
  ms::Circuit ckt;
  const int a = ckt.node("a");
  ckt.add(std::make_unique<ms::Resistor>("r1", a, ms::kGround, 1e6));
  ckt.add(std::make_unique<ms::Capacitor>("c1", a, ms::kGround, 1e-12, 0.8));
  ms::Engine eng(ckt);
  const auto tr = eng.transient(1e-9, 1e-12, {"v(a)"},
                                /*use_initial_conditions=*/true);
  // tau = 1 us >> 1 ns: voltage barely decays from the IC.
  EXPECT_NEAR(tr.waveform("v(a)").back(), 0.8, 0.01);
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
  const auto tr = eng.transient(20e-9, 5e-12, {"v(in)", "i(vin)"});
  // E = integral of v*(-i) dt ~ C * V^2 = 1e-12 J.
  double e = 0.0;
  const auto& times = tr.times();
  const auto& v = tr.waveform("v(in)");
  const auto& i = tr.waveform("i(vin)");
  for (std::size_t k = 1; k < times.size(); ++k) {
    const double dt = times[k] - times[k - 1];
    e += 0.5 * (-v[k] * i[k] - v[k - 1] * i[k - 1]) * dt;
  }
  EXPECT_NEAR(e / 1e-12, 1.0, 0.05);
}

TEST(Transient, RejectsBadTiming) {
  auto ckt = rc_circuit();
  ms::Engine eng(ckt);
  EXPECT_THROW((void)eng.transient(0.0, 1e-12, {}), std::invalid_argument);
  EXPECT_THROW((void)eng.transient(1e-9, -1.0, {}), std::invalid_argument);
  EXPECT_THROW((void)eng.transient(1e-9, 2e-9, {}), std::invalid_argument);
}

TEST(Transient, UnprobedSignalNamesThrow) {
  auto ckt = rc_circuit();
  ms::Engine eng(ckt);
  const auto tr = eng.transient(1e-9, 1e-11, {"v(out)", "i(vin)"});
  EXPECT_EQ(tr.waveform("v(out)").size(), tr.size());
  EXPECT_EQ(tr.waveform("i(vin)").size(), tr.size());
  // A node and a source that exist but were not probed.
  EXPECT_THROW((void)tr.waveform("v(in)"), std::out_of_range);
  EXPECT_THROW((void)tr.waveform("i(nope)"), std::out_of_range);
  // Columns are keyed by the probe string as passed.
  EXPECT_THROW((void)tr.waveform("V(out)"), std::out_of_range);
  EXPECT_THROW((void)tr.waveform("out"), std::out_of_range);
}

TEST(Transient, BadProbesThrowBeforeStepping) {
  auto ckt = rc_circuit();
  ms::Engine eng(ckt);
  for (const char* malformed :
       {"out", "v(out", "vout)", "v()", "x(out)", "v[out]", ""}) {
    EXPECT_THROW((void)eng.transient(1e-9, 1e-11, {"v(out)", malformed}),
                 std::invalid_argument)
        << malformed;
  }
  // Well-formed probes of a node or source the circuit does not have;
  // a current probe names a voltage source, never a node.
  for (const char* unknown : {"v(nope)", "i(nope)", "i(out)", "i(r1)"}) {
    EXPECT_THROW((void)eng.transient(1e-9, 1e-11, {unknown}),
                 std::out_of_range)
        << unknown;
  }
  // Nothing was solved: every probe failed before the first step.
  EXPECT_EQ(eng.factor_count(), 0u);
}

TEST(Transient, GroundProbeReadsZeros) {
  auto ckt = rc_circuit();
  ms::Engine eng(ckt);
  const auto tr = eng.transient(2e-9, 1e-11, {"v(0)", "v(gnd)", "V(GND)"});
  ASSERT_EQ(tr.size(), 201u);
  for (const char* ground : {"v(0)", "v(gnd)", "V(GND)"}) {
    for (const double v : tr.waveform(ground)) ASSERT_EQ(v, 0.0) << ground;
  }
}

TEST(Transient, ProbeSetsShareBitIdenticalColumns) {
  // The probe set only picks which unknowns are copied out; the solve is
  // the same, so the columns two runs share are bit-identical.
  auto ckt = rc_circuit();
  ms::Engine eng(ckt);
  const auto a = eng.transient(4e-9, 1e-11, {"v(out)", "i(vin)"});
  const auto b = eng.transient(4e-9, 1e-11, {"v(in)", "v(gnd)", "v(out)"});
  ASSERT_EQ(a.times(), b.times());
  EXPECT_EQ(a.waveform("v(out)"), b.waveform("v(out)"));
  // Not a trivially flat column: the RC output rises through the run.
  EXPECT_GT(a.waveform("v(out)").back(), 0.9);

  // A fresh circuit and engine read the same doubles again.
  auto fresh = rc_circuit();
  const auto c = ms::Engine(fresh).transient(4e-9, 1e-11, {"i(vin)"});
  EXPECT_EQ(a.waveform("i(vin)"), c.waveform("i(vin)"));
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
  (void)eng.transient(25e-9, 20e-12, {});
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
  (void)eng.transient(25e-9, 20e-12, {});
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
