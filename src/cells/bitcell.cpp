#include "cells/bitcell.hpp"

#include <cmath>
#include <memory>

#include "spice/elements.hpp"
#include "spice/mtj_element.hpp"

namespace mss::cells {

using core::MtjState;
using core::WriteDirection;
using spice::Capacitor;
using spice::Circuit;
using spice::DcWave;
using spice::Engine;
using spice::MtjDevice;
using spice::Mosfet;
using spice::PulseWave;
using spice::VoltageSource;

Bitcell::Bitcell(core::Pdk pdk, BitcellOptions options)
    : pdk_(std::move(pdk)), opt_(options) {}

BitcellWriteResult Bitcell::characterize_write(WriteDirection dir,
                                               double pulse_width) const {
  const auto cards = device_cards(pdk_);
  const double vdd = cards.vdd;
  const double t_start = 0.5e-9;
  const double t_stop = t_start + pulse_width + 1.0e-9;

  Circuit ckt;
  const int bl = ckt.node("bl");
  const int sl = ckt.node("sl");
  const int wl = ckt.node("wl");
  const int n1 = ckt.node("n1");

  // Drive polarity per direction: ToParallel pushes current BL -> SL.
  const bool to_p = dir == WriteDirection::ToParallel;
  ckt.add(std::make_unique<VoltageSource>(
      "vbl", bl, spice::kGround,
      std::make_unique<PulseWave>(0.0, to_p ? vdd : 0.0, t_start, 50e-12,
                                  50e-12, pulse_width)));
  ckt.add(std::make_unique<VoltageSource>(
      "vsl", sl, spice::kGround,
      std::make_unique<PulseWave>(0.0, to_p ? 0.0 : vdd, t_start, 50e-12,
                                  50e-12, pulse_width)));
  ckt.add(std::make_unique<VoltageSource>(
      "vwl", wl, spice::kGround,
      std::make_unique<PulseWave>(0.0, vdd, t_start - 0.2e-9, 50e-12, 50e-12,
                                  pulse_width + 0.4e-9)));

  // MTJ: free terminal on BL, reference on n1; initial state is the one the
  // write must flip.
  auto* mtj = ckt.add(std::make_unique<MtjDevice>(
      "xmtj", bl, n1, pdk_.mtj,
      to_p ? MtjState::Antiparallel : MtjState::Parallel));

  ckt.add(std::make_unique<Mosfet>("macc", n1, wl, sl, cards.nmos,
                                   opt_.access_width_factor * cards.w_min,
                                   cards.l_min));
  ckt.add(std::make_unique<Capacitor>("cbl", bl, spice::kGround,
                                      opt_.c_bitline));
  ckt.add(std::make_unique<Capacitor>("csl", sl, spice::kGround,
                                      opt_.c_sourceline));

  // Energy from whichever source drives the pulse.
  const std::string source = to_p ? "vbl" : "vsl";
  const std::string drive = to_p ? "bl" : "sl";
  Engine engine(ckt);
  const auto tr = engine.transient(
      t_stop, opt_.sim_dt, {"i(" + source + ")", "v(" + drive + ")"});

  BitcellWriteResult out;
  out.switched = mtj->state() == (to_p ? MtjState::Parallel
                                       : MtjState::Antiparallel);
  if (!mtj->flip_times().empty()) {
    out.t_switch = mtj->flip_times().front() - t_start;
  }
  out.energy = source_energy(tr, source, drive);

  for (const auto& [t, i] : mtj->current_trace()) {
    out.i_peak = std::max(out.i_peak, std::abs(i));
    if (mtj->flip_times().empty() || t < mtj->flip_times().front()) {
      out.i_settled = std::abs(i);
    }
  }
  return out;
}

BitcellReadResult Bitcell::characterize_read(double t_read) const {
  const auto cards = device_cards(pdk_);
  const double vdd = cards.vdd;
  BitcellReadResult out;

  for (const MtjState st : {MtjState::Parallel, MtjState::Antiparallel}) {
    Circuit ckt;
    const int bl = ckt.node("bl");
    const int wl = ckt.node("wl");
    const int n1 = ckt.node("n1");

    ckt.add(std::make_unique<VoltageSource>(
        "vbl", bl, spice::kGround, std::make_unique<DcWave>(pdk_.v_read)));
    ckt.add(std::make_unique<VoltageSource>(
        "vwl", wl, spice::kGround,
        std::make_unique<PulseWave>(0.0, vdd, 0.2e-9, 50e-12, 50e-12,
                                    t_read)));
    ckt.add(std::make_unique<MtjDevice>("xmtj", bl, n1, pdk_.mtj, st));
    ckt.add(std::make_unique<Mosfet>("macc", n1, wl, spice::kGround,
                                     cards.nmos,
                                     opt_.access_width_factor * cards.w_min,
                                     cards.l_min));
    ckt.add(std::make_unique<Capacitor>("cbl", bl, spice::kGround,
                                        opt_.c_bitline));

    // MDL pipeline: settled bitline-source current during the pulse.
    const double t_lo = 0.2e-9 + 0.6 * t_read;
    const double t_hi = 0.2e-9 + 0.95 * t_read;
    const auto script = spice::mdl::Script::parse(
        "meas iread avg i(vbl) from=" + mdl_num(t_lo) +
        " to=" + mdl_num(t_hi) + "\n");
    auto probes = script.signals();
    probes.push_back("v(bl)"); // read energy
    Engine engine(ckt);
    const auto tr =
        engine.transient(0.2e-9 + t_read + 0.3e-9, opt_.sim_dt, probes);
    const auto meas = run_mdl_pipeline(tr, script);
    const double i_cell = std::abs(meas.at("iread"));
    if (st == MtjState::Parallel) {
      out.i_cell_p = i_cell;
      out.energy_read = source_energy(tr, "vbl", "bl");
    } else {
      out.i_cell_ap = i_cell;
    }
  }
  out.delta_i = out.i_cell_p - out.i_cell_ap;
  return out;
}

} // namespace mss::cells
