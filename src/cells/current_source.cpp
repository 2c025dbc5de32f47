#include "cells/current_source.hpp"

#include <cmath>
#include <memory>
#include <string>

#include "spice/elements.hpp"
#include "spice/mtj_element.hpp"

namespace mss::cells {

using core::MtjState;
using spice::Circuit;
using spice::DcWave;
using spice::Engine;
using spice::MtjDevice;
using spice::Mosfet;
using spice::Resistor;
using spice::VoltageSource;

CurrentSource::CurrentSource(core::Pdk pdk, CurrentSourceOptions options)
    : pdk_(std::move(pdk)), opt_(options) {}

CurrentSourceResult CurrentSource::characterize() const {
  const auto cards = device_cards(pdk_);
  const double vdd = cards.vdd;
  CurrentSourceResult out;

  for (int k = 0; k <= opt_.n_mtj; ++k) {
    Circuit ckt;
    const int vddn = ckt.node("vdd");
    const int nref = ckt.node("nref");
    const int outn = ckt.node("out");
    const int vload_n = ckt.node("vload_top");

    ckt.add(std::make_unique<VoltageSource>("vvdd", vddn, spice::kGround,
                                            std::make_unique<DcWave>(vdd)));
    // Separate supply for the load branch so i(vload) is the output current.
    ckt.add(std::make_unique<VoltageSource>("vload", vload_n, spice::kGround,
                                            std::make_unique<DcWave>(vdd)));

    // Reference chain: vdd -> MTJ_1 -> ... -> MTJ_n -> nref.
    int prev = vddn;
    for (int m = 0; m < opt_.n_mtj; ++m) {
      const int next = (m == opt_.n_mtj - 1)
                           ? nref
                           : ckt.node("chain" + std::to_string(m + 1));
      const MtjState st =
          m < k ? MtjState::Antiparallel : MtjState::Parallel;
      ckt.add(std::make_unique<MtjDevice>("xm" + std::to_string(m + 1), prev,
                                          next, pdk_.mtj, st));
      prev = next;
    }

    const double w = opt_.mirror_width_factor * cards.w_min;
    // Diode-connected reference NMOS and the mirror output NMOS.
    ckt.add(std::make_unique<Mosfet>("mref", nref, nref, spice::kGround,
                                     cards.nmos, w, cards.l_min));
    ckt.add(std::make_unique<Mosfet>("mout", outn, nref, spice::kGround,
                                     cards.nmos, w, cards.l_min));
    ckt.add(std::make_unique<Resistor>("rload", vload_n, outn, opt_.r_load));

    Engine engine(ckt);
    const auto dc = engine.dc();
    if (!dc.converged) {
      out.levels.push_back(0.0);
      continue;
    }
    // Output current = current through the load supply (delivering =>
    // negative branch current) at the operating point.
    const double i_out = -dc.x[ckt.find_branch("vload")];
    out.levels.push_back(i_out);
    if (k == opt_.n_mtj / 2) {
      const double i_vdd = -dc.x[ckt.find_branch("vvdd")];
      out.static_power = vdd * (i_vdd + i_out);
    }
  }

  double imax = 0.0;
  double imin = 1e9;
  for (double i : out.levels) {
    imax = std::max(imax, i);
    imin = std::min(imin, i);
  }
  out.tuning_range = imax > 0.0 ? (imax - imin) / imax : 0.0;
  return out;
}

} // namespace mss::cells
