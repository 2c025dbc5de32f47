// Section II device/PDK characterisation figures (Figs. 1-5 of the paper;
// the figure page is garbled in the available scan, so this driver
// regenerates the canonical device-level plots the PDK section describes):
//
//  (a) R-V loop of the memory-mode MSS (resistance states + TMR roll-off),
//  (b) switching probability vs pulse width at several overdrives
//      (compact-model behavioural strategy),
//  (c) sensor-mode transfer curve R(H_z) with the in-plane bias magnets,
//  (d) oscillator-mode tuning: frequency / power / linewidth vs current,
//  (e) bit-cell write and read summary from the SPICE engine.
#include <string>

#include "cells/bitcell.hpp"
#include "core/mss_stack.hpp"
#include "core/pdk.hpp"
#include "paper.hpp"
#include "util/units.hpp"

namespace mss::paper {

Figure fig2_5_device_pdk() {
  const auto pdk = core::Pdk::mss45();
  Figure fig;

  // ---- (a) R-V characteristics -------------------------------------------
  {
    const auto dev = core::MssStack::make_memory(pdk.mtj);
    const auto& m = dev.memory();
    sweep::ResultTable t({"v_V", "r_p_kOhm", "r_ap_kOhm", "tmr_pct"});
    for (double v = 0.0; v <= 0.91; v += 0.15) {
      t.add_row({v, m.resistance(core::MtjState::Parallel, v) / 1e3,
                 m.resistance(core::MtjState::Antiparallel, v) / 1e3,
                 100.0 * m.tmr(v)});
    }
    fig.tables.push_back(
        {"rv", "(a) R-V loop: " + dev.describe(), std::move(t)});
  }

  // ---- (b) switching probability vs pulse width ---------------------------
  {
    const core::MtjCompactModel m(pdk.mtj);
    const double ic = m.critical_current(core::WriteDirection::ToAntiparallel);
    sweep::ResultTable t(
        {"pulse_ns", "p_sw_1.5ic0", "p_sw_2.0ic0", "p_sw_2.5ic0"});
    for (double tp_ns : {1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0}) {
      std::vector<sweep::Value> row{tp_ns};
      for (double x : {1.5, 2.0, 2.5}) {
        const double wer = m.write_error_rate(
            core::WriteDirection::ToAntiparallel, x * ic, tp_ns * util::kNs);
        row.emplace_back(1.0 - wer);
      }
      t.add_row(std::move(row));
    }
    fig.tables.push_back(
        {"switching", "(b) switching probability vs pulse width (P->AP)",
         std::move(t)});
  }

  // ---- (c) sensor transfer curve ------------------------------------------
  std::vector<std::pair<std::string, double>> key;
  {
    const auto dev = core::MssStack::make_sensor(pdk.mtj);
    const auto& s = dev.sensor();
    const auto c = s.characteristics();
    key.emplace_back("sensor_sensitivity_ohm_per_oe",
                     c.sensitivity_ohm_per_am * util::kOersted);
    key.emplace_back("sensor_linear_range_kOe",
                     c.linear_range_am / util::kKiloOersted);
    sweep::ResultTable t({"h_z_kOe", "m_z", "r_kOhm"});
    const double r = c.linear_range_am;
    for (double h = -1.5 * r; h <= 1.51 * r; h += 0.5 * r) {
      t.add_row({h / util::kKiloOersted, s.mz(h), s.resistance(h) / 1e3});
    }
    fig.tables.push_back(
        {"sensor", "(c) sensor transfer: " + dev.describe(), std::move(t)});
  }

  // ---- (d) oscillator tuning ----------------------------------------------
  {
    const auto dev = core::MssStack::make_oscillator(pdk.mtj);
    const auto& o = dev.oscillator();
    const auto c = o.characteristics();
    key.emplace_back("sto_fmr_GHz", c.f_fmr_hz / util::kGhz);
    key.emplace_back("sto_threshold_uA", c.i_threshold / util::kUa);
    key.emplace_back("sto_llgs_fmr_GHz", o.llgs_frequency(0.0) / util::kGhz);
    sweep::ResultTable t({"i_over_ith", "f_GHz", "p_out_dBm", "linewidth_MHz"});
    for (double zeta : {0.5, 1.2, 1.5, 2.0, 2.5, 3.0}) {
      const double i = zeta * c.i_threshold;
      t.add_row({zeta, o.frequency(i) / util::kGhz, o.output_power_dbm(i),
                 o.linewidth(i) / util::kMhz});
    }
    fig.tables.push_back(
        {"sto", "(d) STO tuning: " + dev.describe(), std::move(t)});
  }

  // ---- (e) bit-cell write characterisation through SPICE ------------------
  {
    const cells::Bitcell cell(pdk);
    sweep::ResultTable t(
        {"direction", "switched", "t_switch_ns", "energy_pJ", "i_peak_uA"});
    for (const auto dir : {core::WriteDirection::ToParallel,
                           core::WriteDirection::ToAntiparallel}) {
      const auto r = cell.characterize_write(dir, 20e-9);
      t.add_row({std::string(dir == core::WriteDirection::ToParallel
                                 ? "AP->P"
                                 : "P->AP"),
                 std::string(r.switched ? "yes" : "NO"),
                 r.t_switch / util::kNs, r.energy / util::kPj,
                 r.i_peak / util::kUa});
    }
    const auto rd = cell.characterize_read(5e-9);
    key.emplace_back("read_i_p_uA", rd.i_cell_p / util::kUa);
    key.emplace_back("read_i_ap_uA", rd.i_cell_ap / util::kUa);
    key.emplace_back("read_margin_uA", rd.delta_i / util::kUa);
    key.emplace_back("read_energy_pJ", rd.energy_read / util::kPj);
    fig.tables.push_back(
        {"bitcell", "(e) 1T-1MTJ bit-cell SPICE characterisation",
         std::move(t)});
  }
  fig.tables.push_back(
      {"key", "sensor, oscillator and bit-cell read key figures",
       key_values(key)});

  fig.note = pdk.describe() +
             "\nShape checks: TMR rolls off with bias; P_sw saturates with "
             "pulse width and overdrive; sensor linear then saturating; STO "
             "red-shifts and narrows above threshold; P->AP write is the "
             "slower direction.";
  return fig;
}

} // namespace mss::paper
