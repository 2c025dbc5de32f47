#include "cells/nvff.hpp"

#include <cmath>
#include <memory>

#include "spice/elements.hpp"
#include "spice/mtj_element.hpp"

namespace mss::cells {

using core::MtjState;
using spice::Capacitor;
using spice::Circuit;
using spice::DcWave;
using spice::Engine;
using spice::MtjDevice;
using spice::Mosfet;
using spice::PulseWave;
using spice::PwlWave;
using spice::VoltageSource;

Nvff::Nvff(core::Pdk pdk, NvffOptions options)
    : pdk_(std::move(pdk)), opt_(options) {}

namespace {

/// Adds the cross-coupled latch between q and qb, powered by `vddn`.
void add_latch(Circuit& ckt, int q, int qb, int vddn,
               const DeviceCards& cards, double width_factor) {
  const double wn = width_factor * cards.w_min;
  ckt.add(std::make_unique<Mosfet>("lp1", q, qb, vddn, cards.pmos, 2.0 * wn,
                                   cards.l_min));
  ckt.add(std::make_unique<Mosfet>("ln1", q, qb, spice::kGround, cards.nmos,
                                   wn, cards.l_min));
  ckt.add(std::make_unique<Mosfet>("lp2", qb, q, vddn, cards.pmos, 2.0 * wn,
                                   cards.l_min));
  ckt.add(std::make_unique<Mosfet>("ln2", qb, q, spice::kGround, cards.nmos,
                                   wn, cards.l_min));
}

} // namespace

NvffResult Nvff::characterize(bool bit) const {
  const auto cards = device_cards(pdk_);
  const double vdd = cards.vdd;
  NvffResult out;

  // ---------------- store phase ----------------
  MtjState mtj_q_state;
  MtjState mtj_qb_state;
  {
    Circuit ckt;
    const int vddn = ckt.node("vdd");
    const int q = ckt.node("q");
    const int qb = ckt.node("qb");
    const int ctl = ckt.node("ctl");

    ckt.add(std::make_unique<VoltageSource>("vvdd", vddn, spice::kGround,
                                            std::make_unique<DcWave>(vdd)));
    // CTL: 0 during phase 1, Vdd during phase 2.
    const double t1 = opt_.store_phase;
    const double t2 = 2.0 * opt_.store_phase;
    ckt.add(std::make_unique<VoltageSource>(
        "vctl", ctl, spice::kGround,
        std::make_unique<PwlWave>(std::vector<std::pair<double, double>>{
            {0.0, 0.0}, {t1, 0.0}, {t1 + 0.2e-9, vdd}, {t2, vdd}})));

    add_latch(ckt, q, qb, vddn, cards, opt_.latch_width_factor);

    // Seed the latch with the data via node capacitors' initial conditions.
    ckt.add(std::make_unique<Capacitor>("cq", q, spice::kGround, opt_.c_node,
                                        bit ? vdd : 0.0));
    ckt.add(std::make_unique<Capacitor>("cqb", qb, spice::kGround,
                                        opt_.c_node, bit ? 0.0 : vdd));

    // Shadow MTJs: free terminal on CTL.
    auto* m_q = ckt.add(std::make_unique<MtjDevice>("xmq", ctl, q, pdk_.mtj,
                                                    MtjState::Parallel));
    auto* m_qb = ckt.add(std::make_unique<MtjDevice>("xmqb", ctl, qb,
                                                     pdk_.mtj,
                                                     MtjState::Antiparallel));

    Engine engine(ckt);
    const auto tr = engine.transient(
        t2, opt_.sim_dt, {"i(vvdd)", "v(vdd)", "i(vctl)", "v(ctl)"},
        /*use_initial_conditions=*/true);
    out.e_store = source_energy(tr, "vvdd", "vdd") +
                  source_energy(tr, "vctl", "ctl");

    mtj_q_state = m_q->state();
    mtj_qb_state = m_qb->state();
    // Expected: high node's MTJ AP, low node's MTJ P.
    const MtjState want_q = bit ? MtjState::Antiparallel : MtjState::Parallel;
    const MtjState want_qb = bit ? MtjState::Parallel : MtjState::Antiparallel;
    out.store_ok = (mtj_q_state == want_q) && (mtj_qb_state == want_qb);
  }

  // ---------------- restore phase ----------------
  {
    Circuit ckt;
    const int vddn = ckt.node("vdd");
    const int q = ckt.node("q");
    const int qb = ckt.node("qb");
    const int ctl = ckt.node("ctl");

    // Supply ramps up from zero: power-on restore.
    const double t_ramp0 = 0.5e-9;
    const double t_ramp1 = 1.5e-9;
    const double t_stop = 8e-9;
    ckt.add(std::make_unique<VoltageSource>(
        "vvdd", vddn, spice::kGround,
        std::make_unique<PwlWave>(std::vector<std::pair<double, double>>{
            {0.0, 0.0}, {t_ramp0, 0.0}, {t_ramp1, vdd}, {t_stop, vdd}})));
    ckt.add(std::make_unique<VoltageSource>("vctl", ctl, spice::kGround,
                                            std::make_unique<DcWave>(0.0)));

    add_latch(ckt, q, qb, vddn, cards, opt_.latch_width_factor);
    ckt.add(std::make_unique<Capacitor>("cq", q, spice::kGround, opt_.c_node));
    ckt.add(std::make_unique<Capacitor>("cqb", qb, spice::kGround,
                                        opt_.c_node));
    ckt.add(std::make_unique<MtjDevice>("xmq", ctl, q, pdk_.mtj,
                                        mtj_q_state));
    ckt.add(std::make_unique<MtjDevice>("xmqb", ctl, qb, pdk_.mtj,
                                        mtj_qb_state));

    Engine engine(ckt);
    const auto tr = engine.transient(
        t_stop, opt_.sim_dt, {"i(vvdd)", "v(vdd)", "v(q)", "v(qb)"},
        /*use_initial_conditions=*/true);
    out.e_restore = source_energy(tr, "vvdd", "vdd");

    const auto& times = tr.times();
    const auto& vq = tr.waveform("v(q)");
    const auto& vqb = tr.waveform("v(qb)");
    for (std::size_t k = 0; k < times.size(); ++k) {
      if (times[k] < t_ramp0) continue;
      const double d = vq[k] - vqb[k];
      if (std::abs(d) > vdd / 2.0) {
        out.t_restore = times[k] - t_ramp0;
        out.restore_ok = bit ? (d > 0.0) : (d < 0.0);
        break;
      }
    }
  }
  return out;
}

} // namespace mss::cells
