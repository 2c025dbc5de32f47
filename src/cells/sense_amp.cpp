#include "cells/sense_amp.hpp"

#include <cmath>
#include <memory>

#include "spice/elements.hpp"

namespace mss::cells {

using spice::Capacitor;
using spice::Circuit;
using spice::DcWave;
using spice::Engine;
using spice::Mosfet;
using spice::PulseWave;
using spice::Switch;
using spice::VoltageSource;

SenseAmp::SenseAmp(core::Pdk pdk, SenseAmpOptions options)
    : pdk_(std::move(pdk)), opt_(options) {}

SenseAmpResult SenseAmp::resolve(double v_plus, double v_minus) const {
  const auto cards = device_cards(pdk_);
  const double vdd = cards.vdd;
  const double t_pc_end = 0.5e-9;  // precharge released
  const double t_se = 0.7e-9;      // sense enable rises
  const double t_stop = 3.0e-9;

  Circuit ckt;
  const int vddn = ckt.node("vdd");
  const int outp = ckt.node("outp");
  const int outn = ckt.node("outn");
  const int tail = ckt.node("tail");
  const int inp = ckt.node("inp");
  const int inn = ckt.node("inn");
  const int se = ckt.node("se");
  const int pc = ckt.node("pc");

  ckt.add(std::make_unique<VoltageSource>("vvdd", vddn, spice::kGround,
                                          std::make_unique<DcWave>(vdd)));
  ckt.add(std::make_unique<VoltageSource>("vinp", inp, spice::kGround,
                                          std::make_unique<DcWave>(v_plus)));
  ckt.add(std::make_unique<VoltageSource>("vinn", inn, spice::kGround,
                                          std::make_unique<DcWave>(v_minus)));
  ckt.add(std::make_unique<VoltageSource>(
      "vse", se, spice::kGround,
      std::make_unique<PulseWave>(0.0, vdd, t_se, 30e-12, 30e-12,
                                  t_stop - t_se)));
  // PC high initially, drops before SE.
  ckt.add(std::make_unique<VoltageSource>(
      "vpc", pc, spice::kGround,
      std::make_unique<PulseWave>(vdd, 0.0, t_pc_end, 30e-12, 30e-12,
                                  t_stop)));

  // Precharge switches to VDD while PC is high.
  ckt.add(std::make_unique<Switch>("spc1", outp, vddn, pc, spice::kGround,
                                   vdd / 2.0, 200.0));
  ckt.add(std::make_unique<Switch>("spc2", outn, vddn, pc, spice::kGround,
                                   vdd / 2.0, 200.0));

  // Cross-coupled inverters.
  const double wl_latch = opt_.latch_width_factor * cards.w_min;
  ckt.add(std::make_unique<Mosfet>("mp1", outp, outn, vddn, cards.pmos,
                                   2.0 * wl_latch, cards.l_min));
  ckt.add(std::make_unique<Mosfet>("mp2", outn, outp, vddn, cards.pmos,
                                   2.0 * wl_latch, cards.l_min));
  ckt.add(std::make_unique<Mosfet>("mn1", outp, outn, tail, cards.nmos,
                                   wl_latch, cards.l_min));
  ckt.add(std::make_unique<Mosfet>("mn2", outn, outp, tail, cards.nmos,
                                   wl_latch, cards.l_min));

  // Input pair: inp discharges outp (so the *higher* input drives its
  // output low; the complementary output resolves high).
  const double w_in = opt_.input_pair_width_factor * cards.w_min;
  ckt.add(std::make_unique<Mosfet>("min1", outp, inp, tail, cards.nmos, w_in,
                                   cards.l_min));
  ckt.add(std::make_unique<Mosfet>("min2", outn, inn, tail, cards.nmos, w_in,
                                   cards.l_min));

  // Tail enable.
  ckt.add(std::make_unique<Mosfet>("mtail", tail, se, spice::kGround,
                                   cards.nmos,
                                   opt_.tail_width_factor * cards.w_min,
                                   cards.l_min));

  ckt.add(std::make_unique<Capacitor>("cop", outp, spice::kGround, opt_.c_out));
  ckt.add(std::make_unique<Capacitor>("con", outn, spice::kGround, opt_.c_out));
  ckt.add(std::make_unique<Capacitor>("ct", tail, spice::kGround, 2e-15));

  Engine engine(ckt);
  const auto tr = engine.transient(
      t_stop, opt_.sim_dt, {"i(vvdd)", "v(vdd)", "v(outp)", "v(outn)"});

  SenseAmpResult out;
  out.energy = source_energy(tr, "vvdd", "vdd");

  // Resolution: |outp - outn| exceeds vdd/2 after SE.
  const auto& times = tr.times();
  const auto& v_outp = tr.waveform("v(outp)");
  const auto& v_outn = tr.waveform("v(outn)");
  for (std::size_t k = 0; k < times.size(); ++k) {
    if (times[k] < t_se) continue;
    const double d = v_outp[k] - v_outn[k];
    if (std::abs(d) > vdd / 2.0) {
      out.resolved = true;
      out.t_resolve = times[k] - t_se;
      // Higher input discharges its own output: v_plus > v_minus should
      // give outp low / outn high, i.e. d < 0.
      out.decision_correct = (v_plus > v_minus) ? (d < 0.0) : (d > 0.0);
      break;
    }
  }
  return out;
}

} // namespace mss::cells
