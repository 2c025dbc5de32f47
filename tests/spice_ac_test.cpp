// AC small-signal analysis validation against closed forms.
#include "spice/ac.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include <memory>

#include "core/pdk.hpp"
#include "spice/controlled.hpp"
#include "spice/elements.hpp"
#include "spice/mosfet.hpp"
#include "spice/mtj_element.hpp"

namespace ms = mss::spice;

TEST(Ac, LogSweepSpansDecades) {
  const auto f = ms::log_sweep(1e3, 1e6, 10);
  EXPECT_NEAR(f.front(), 1e3, 1e-9);
  EXPECT_GE(f.back(), 1e6 * 0.99);
  EXPECT_EQ(f.size(), 31u);
  EXPECT_THROW((void)ms::log_sweep(0.0, 1e3), std::invalid_argument);
}

TEST(Ac, ComplexSparseSolverSolvesKnownSystem) {
  using C = std::complex<double>;
  // [1+j, 0; 0, 2] x = [2, 4j] -> x = [2/(1+j), 2j] = [1-j, 2j].
  ms::AcSparseSolver s;
  s.begin(2);
  s.add(0, 0, C(1, 1));
  s.add(1, 1, C(2, 0));
  std::vector<C> x;
  ASSERT_TRUE(s.solve({C(2, 0), C(0, 4)}, x));
  EXPECT_NEAR(x[0].real(), 1.0, 1e-12);
  EXPECT_NEAR(x[0].imag(), -1.0, 1e-12);
  EXPECT_NEAR(x[1].imag(), 2.0, 1e-12);
}

namespace {

/// RC low-pass with the source marked as AC stimulus; f_c = 1/(2 pi R C).
ms::Circuit rc_lowpass() {
  ms::Circuit ckt;
  const int in = ckt.node("in");
  const int out = ckt.node("out");
  auto src = std::make_unique<ms::VoltageSource>(
      "vin", in, ms::kGround, std::make_unique<ms::DcWave>(0.0));
  src->set_ac(1.0);
  ckt.add(std::move(src));
  ckt.add(std::make_unique<ms::Resistor>("r1", in, out, 1e3));
  ckt.add(std::make_unique<ms::Capacitor>("c1", out, ms::kGround, 159.155e-12));
  return ckt; // f_c = 1 MHz
}

} // namespace

TEST(Ac, RcLowPassMagnitudeAndPhase) {
  auto ckt = rc_lowpass();
  const std::vector<double> freqs{1e4, 1e6, 1e8};
  const auto res = ms::ac_analysis(ckt, freqs);
  ASSERT_TRUE(res.converged());
  // Well below f_c: |H| ~ 1, phase ~ 0.
  EXPECT_NEAR(res.magnitude("out", 0), 1.0, 0.01);
  EXPECT_NEAR(res.phase("out", 0), 0.0, 0.02);
  // At f_c: |H| = 1/sqrt(2), phase = -45 deg.
  EXPECT_NEAR(res.magnitude("out", 1), 1.0 / std::sqrt(2.0), 0.01);
  EXPECT_NEAR(res.phase("out", 1), -M_PI / 4.0, 0.02);
  // Two decades above: |H| ~ 0.01, -40 dB.
  EXPECT_NEAR(res.magnitude_db("out", 2), -40.0, 0.5);
}

TEST(Ac, RlcSeriesResonance) {
  // Series RLC: at resonance the capacitor voltage peaks at Q * Vin.
  ms::Circuit ckt;
  const int in = ckt.node("in");
  const int mid = ckt.node("mid");
  const int out = ckt.node("out");
  auto src = std::make_unique<ms::VoltageSource>(
      "vin", in, ms::kGround, std::make_unique<ms::DcWave>(0.0));
  src->set_ac(1.0);
  ckt.add(std::move(src));
  const double r = 10.0, l = 1e-6, c = 1e-9;
  ckt.add(std::make_unique<ms::Resistor>("r1", in, mid, r));
  ckt.add(std::make_unique<ms::Inductor>("l1", mid, out, l));
  ckt.add(std::make_unique<ms::Capacitor>("c1", out, ms::kGround, c));
  const double f0 = 1.0 / (2.0 * M_PI * std::sqrt(l * c)); // ~5.03 MHz
  const double q = std::sqrt(l / c) / r;                   // ~3.16
  const auto res = ms::ac_analysis(ckt, {f0});
  ASSERT_TRUE(res.converged());
  EXPECT_NEAR(res.magnitude("out", 0), q, 0.05 * q);
}

TEST(Ac, CommonSourceAmplifierGain) {
  // NMOS common-source with resistive load: |A| ~ gm * (RL || ro) at low
  // frequency, rolling off with the load capacitance.
  ms::Circuit ckt;
  const int vdd = ckt.node("vdd");
  const int in = ckt.node("in");
  const int out = ckt.node("out");
  ckt.add(std::make_unique<ms::VoltageSource>("vdd", vdd, ms::kGround,
                                              std::make_unique<ms::DcWave>(1.1)));
  // Bias for saturation: vgs = 0.45 (vov = 0.1), Id ~ 50 uA, so the 5 k
  // load drops ~0.25 V and vds ~ 0.85 V >> vov.
  auto vin = std::make_unique<ms::VoltageSource>(
      "vin", in, ms::kGround, std::make_unique<ms::DcWave>(0.45));
  vin->set_ac(1.0);
  ckt.add(std::move(vin));
  const double rl = 5e3;
  ckt.add(std::make_unique<ms::Resistor>("rl", vdd, out, rl));
  ckt.add(std::make_unique<ms::Mosfet>("m1", out, in, ms::kGround,
                                       ms::MosModel::nmos(), 2e-6, 100e-9));
  ckt.add(std::make_unique<ms::Capacitor>("cl", out, ms::kGround, 100e-15));

  const auto res = ms::ac_analysis(ckt, {1e5, 1e9});
  ASSERT_TRUE(res.converged());
  // Hand values at the OP (vgs = 0.6, saturated): gm = beta*vov*(1+l*vds).
  const double gain_lf = res.magnitude("out", 0);
  EXPECT_GT(gain_lf, 3.0);  // a real amplifier
  EXPECT_LT(gain_lf, 60.0); // but a bounded one
  // High frequency: the load cap kills the gain.
  EXPECT_LT(res.magnitude("out", 1), 0.5 * gain_lf);
}

TEST(Ac, MtjSensorDividerBandwidth) {
  // Sensor read-out divider: AC source -> MTJ -> node with parasitic cap.
  // The pole sits at 1/(2 pi R_eq C): checks the MTJ small-signal stamp.
  const auto pdk = mss::core::Pdk::mss45();
  ms::Circuit ckt;
  const int in = ckt.node("in");
  const int out = ckt.node("out");
  auto src = std::make_unique<ms::VoltageSource>(
      "vin", in, ms::kGround, std::make_unique<ms::DcWave>(0.1));
  src->set_ac(1.0);
  ckt.add(std::move(src));
  ckt.add(std::make_unique<ms::MtjDevice>("x1", in, out, pdk.mtj,
                                          mss::core::MtjState::Parallel));
  ckt.add(std::make_unique<ms::Resistor>("rref", out, ms::kGround,
                                         pdk.mtj.r_p()));
  ckt.add(std::make_unique<ms::Capacitor>("cpar", out, ms::kGround, 10e-15));

  const auto res = ms::ac_analysis(ckt, {1e5});
  ASSERT_TRUE(res.converged());
  // Equal-resistance divider at low frequency: |H| ~ 0.5.
  EXPECT_NEAR(res.magnitude("out", 0), 0.5, 0.03);
}

TEST(Ac, UnconvergedDcThrows) {
  // Two ideal voltage sources fighting on one node cannot solve.
  ms::Circuit ckt;
  const int a = ckt.node("a");
  ckt.add(std::make_unique<ms::VoltageSource>("v1", a, ms::kGround,
                                              std::make_unique<ms::DcWave>(1.0)));
  ckt.add(std::make_unique<ms::VoltageSource>("v2", a, ms::kGround,
                                              std::make_unique<ms::DcWave>(2.0)));
  EXPECT_THROW((void)ms::ac_analysis(ckt, {1e3}), std::runtime_error);
}

TEST(Ac, EmptyFrequencyListRejected) {
  auto ckt = rc_lowpass();
  EXPECT_THROW((void)ms::ac_analysis(ckt, {}), std::invalid_argument);
}
