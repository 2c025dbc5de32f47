#include "cells/write_driver.hpp"

#include <cmath>
#include <memory>
#include <string>

#include "spice/elements.hpp"

namespace mss::cells {

using spice::Capacitor;
using spice::Circuit;
using spice::DcWave;
using spice::Engine;
using spice::Mosfet;
using spice::PulseWave;
using spice::VoltageSource;

WriteDriver::WriteDriver(core::Pdk pdk, WriteDriverOptions options)
    : pdk_(std::move(pdk)), opt_(options) {}

WriteDriverResult WriteDriver::characterize() const {
  const auto cards = device_cards(pdk_);
  const double vdd = cards.vdd;
  const double t_stop = 8e-9;

  Circuit ckt;
  const int vddn = ckt.node("vdd");
  const int in = ckt.node("in");
  ckt.add(std::make_unique<VoltageSource>("vvdd", vddn, spice::kGround,
                                          std::make_unique<DcWave>(vdd)));
  // One full cycle: rise at 1 ns, fall at 4 ns.
  ckt.add(std::make_unique<VoltageSource>(
      "vin", in, spice::kGround,
      std::make_unique<PulseWave>(0.0, vdd, 1e-9, 30e-12, 30e-12, 3e-9)));

  int prev = in;
  double w = opt_.first_width_factor * cards.w_min;
  double w_last_n = w;
  for (int s = 0; s < opt_.stages; ++s) {
    const int out = ckt.node("n" + std::to_string(s + 1));
    ckt.add(std::make_unique<Mosfet>("mp" + std::to_string(s + 1), out, prev,
                                     vddn, cards.pmos, 2.0 * w, cards.l_min));
    ckt.add(std::make_unique<Mosfet>("mn" + std::to_string(s + 1), out, prev,
                                     spice::kGround, cards.nmos, w,
                                     cards.l_min));
    // Gate load of the next stage approximated by a lumped capacitor.
    const double c_gate = 3.0 * w * cards.nmos.c_gate_per_m;
    ckt.add(std::make_unique<Capacitor>("cg" + std::to_string(s + 1), out,
                                        spice::kGround, c_gate));
    w_last_n = w;
    w *= opt_.taper;
    prev = out;
  }
  const std::string out_node = "n" + std::to_string(opt_.stages);
  ckt.add(std::make_unique<Capacitor>("cload", ckt.node(out_node),
                                      spice::kGround, opt_.c_load));

  // Odd chain inverts; measure whichever polarity with the MDL pipeline.
  const bool inverting = opt_.stages % 2 == 1;
  const double half = vdd / 2.0;
  const std::string rise_edge = inverting ? "fall" : "rise";
  const std::string fall_edge = inverting ? "rise" : "fall";
  const auto script = spice::mdl::Script::parse(
      "meas trise delay trig v(in) val=" + mdl_num(half) +
      " rise=1 targ v(" + out_node + ") val=" + mdl_num(half) + " " +
      rise_edge + "=1\n" +
      "meas tfall delay trig v(in) val=" + mdl_num(half) +
      " fall=1 targ v(" + out_node + ") val=" + mdl_num(half) + " " +
      fall_edge + "=1\n");
  auto probes = script.signals();
  probes.push_back("i(vvdd)"); // cycle energy
  probes.push_back("v(vdd)");

  Engine engine(ckt);
  const auto tr = engine.transient(t_stop, opt_.sim_dt, probes);
  const auto meas = run_mdl_pipeline(tr, script);

  WriteDriverResult out;
  out.t_rise = meas.count("trise") ? meas.at("trise") : 0.0;
  out.t_fall = meas.count("tfall") ? meas.at("tfall") : 0.0;
  out.energy_cycle = source_energy(tr, "vvdd", "vdd");
  // Drive current of the final stage at full gate drive, from the model.
  const Mosfet probe("probe", 0, 0, 0, cards.nmos, w_last_n, cards.l_min);
  out.i_drive = probe.ids(vdd, vdd);
  return out;
}

} // namespace mss::cells
