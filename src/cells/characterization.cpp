#include "cells/characterization.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace mss::cells {

std::string mdl_num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.9e", v);
  return buf;
}

DeviceCards device_cards(const core::Pdk& pdk) {
  DeviceCards cards;
  const bool n45 = pdk.node == core::TechNode::N45;
  cards.nmos = spice::MosModel::nmos(n45 ? 0.35 : 0.40, n45 ? 500e-6 : 450e-6);
  cards.pmos = spice::MosModel::pmos(n45 ? 0.35 : 0.40, n45 ? 250e-6 : 220e-6);
  cards.nmos.c_gate_per_m = pdk.cmos.c_gate_per_m;
  cards.pmos.c_gate_per_m = pdk.cmos.c_gate_per_m;
  cards.w_min = 2.0 * pdk.cmos.feature_m;
  cards.l_min = pdk.cmos.feature_m;
  cards.vdd = pdk.cmos.vdd;
  return cards;
}

double source_energy(const spice::TransientResult& tr,
                     const std::string& vsource_name,
                     const std::string& plus_node) {
  // SPICE convention: the stored branch current flows from the + terminal
  // *through the source* to the - terminal, so a delivering source carries
  // negative branch current and the power it delivers is p = -v * i.
  const auto& times = tr.times();
  const auto& v = tr.waveform("v(" + plus_node + ")");
  const auto& i = tr.waveform("i(" + vsource_name + ")");
  double e = 0.0;
  for (std::size_t k = 1; k < times.size(); ++k) {
    const double dt = times[k] - times[k - 1];
    const double p0 = -v[k - 1] * i[k - 1];
    const double p1 = -v[k] * i[k];
    e += 0.5 * (p0 + p1) * dt;
  }
  return e;
}

std::map<std::string, double> run_mdl_pipeline(
    const spice::TransientResult& tr, const spice::mdl::Script& script) {
  const auto results = script.evaluate(tr);
  const std::string file = spice::mdl::write_measure_file(results);
  return spice::mdl::parse_measure_file(file);
}

ArrayWriteResult characterize_array_write(const core::Pdk& pdk,
                                          const ArrayNetlistOptions& opt,
                                          core::WriteDirection dir,
                                          double pulse_width) {
  const double t_start = 0.5e-9;
  const double t_stop = t_start + pulse_width + 1.0e-9;
  auto net = build_array_write_netlist(pdk, opt, dir, pulse_width);

  // Energy from whichever source drives the pulse.
  const bool to_p = dir == core::WriteDirection::ToParallel;
  const std::string& source = to_p ? net.v_bitline : net.v_sourceline;
  const std::string& drive = to_p ? net.bl_drive_node : net.sl_drive_node;
  spice::Engine engine(net.circuit);
  const auto tr = engine.transient(
      t_stop, opt.sim_dt, {"i(" + source + ")", "v(" + drive + ")"});

  ArrayWriteResult out;
  out.converged = tr.converged();
  out.dim = net.dim;
  out.steps = tr.accepted_steps();
  out.factor_cols = engine.factor_cols_total();
  out.switched = net.target_mtj->state() ==
                 (to_p ? core::MtjState::Parallel
                       : core::MtjState::Antiparallel);
  if (!net.target_mtj->flip_times().empty()) {
    out.t_switch = net.target_mtj->flip_times().front() - t_start;
  }
  out.energy = source_energy(tr, source, drive);
  for (const auto& [t, i] : net.target_mtj->current_trace()) {
    out.i_peak = std::max(out.i_peak, std::abs(i));
    if (net.target_mtj->flip_times().empty() ||
        t < net.target_mtj->flip_times().front()) {
      out.i_settled = std::abs(i);
    }
  }
  return out;
}

ArrayReadResult characterize_array_read(const core::Pdk& pdk,
                                        const ArrayNetlistOptions& opt,
                                        double t_read) {
  const double t_start = 0.5e-9;
  ArrayReadResult out;
  for (const core::MtjState st :
       {core::MtjState::Parallel, core::MtjState::Antiparallel}) {
    auto net = build_array_read_netlist(pdk, opt, st, t_read);
    // MDL pipeline: settled bitline-source current during the pulse.
    const double t_lo = t_start + 0.6 * t_read;
    const double t_hi = t_start + 0.95 * t_read;
    const auto script = spice::mdl::Script::parse(
        "meas iread avg i(" + net.v_bitline + ") from=" + mdl_num(t_lo) +
        " to=" + mdl_num(t_hi) + "\n");
    auto probes = script.signals();
    probes.push_back("v(" + net.bl_drive_node + ")"); // read energy
    spice::Engine engine(net.circuit);
    const auto tr =
        engine.transient(t_start + t_read + 0.3e-9, opt.sim_dt, probes);
    const auto meas = run_mdl_pipeline(tr, script);
    const double i_cell = std::abs(meas.at("iread"));
    out.dim = net.dim;
    out.steps = tr.accepted_steps();
    out.factor_cols += engine.factor_cols_total();
    if (st == core::MtjState::Parallel) {
      out.i_cell_p = i_cell;
      out.energy_read = source_energy(tr, net.v_bitline, net.bl_drive_node);
    } else {
      out.i_cell_ap = i_cell;
    }
  }
  out.delta_i = out.i_cell_p - out.i_cell_ap;
  return out;
}

} // namespace mss::cells
