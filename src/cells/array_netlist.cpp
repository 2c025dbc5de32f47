#include "cells/array_netlist.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "cells/characterization.hpp"
#include "spice/elements.hpp"
#include "spice/mosfet.hpp"

namespace mss::cells {

using core::MtjState;
using core::WriteDirection;
using spice::Capacitor;
using spice::DcWave;
using spice::MtjDevice;
using spice::Mosfet;
using spice::PulseWave;
using spice::Resistor;
using spice::VoltageSource;

namespace {

/// Total-line parasitics split over `segments` RC sections.
struct LineRc {
  double r_seg = 0.0;
  double c_seg = 0.0;
  std::size_t segments = 0;
};

[[nodiscard]] LineRc line_rc(double r_total, double c_total,
                             std::size_t cells, std::size_t segments) {
  LineRc rc;
  rc.segments = segments == 0 ? cells : std::min(segments, cells);
  rc.r_seg = r_total / double(rc.segments);
  rc.c_seg = c_total / double(rc.segments);
  return rc;
}

/// Segment node index ([1, segments]) a cell at `pos` of `cells` taps.
[[nodiscard]] std::size_t tap_index(std::size_t pos, std::size_t cells,
                                    std::size_t segments) {
  const std::size_t tap = ((pos + 1) * segments + cells - 1) / cells;
  return std::clamp<std::size_t>(tap, 1, segments);
}

/// Shared structure of the write and read builds; the caller wires the
/// selected-column sources afterwards.
struct ArrayBuildSpec {
  WriteDirection dir = WriteDirection::ToAntiparallel;
  MtjState target_state = MtjState::Parallel;
  double pulse_width = 0.0;
  bool is_write = true;
};

[[nodiscard]] ArrayNetlist build_common(const core::Pdk& pdk,
                                        const ArrayNetlistOptions& opt,
                                        const ArrayBuildSpec& spec) {
  if (opt.rows == 0 || opt.cols == 0 || opt.target_col >= opt.cols) {
    throw std::invalid_argument("array_netlist: bad organisation");
  }
  const auto cards = device_cards(pdk);
  const double vdd = cards.vdd;
  const double f = pdk.cmos.feature_m;
  const std::size_t rows = opt.rows;
  const std::size_t cols = opt.cols;
  const std::size_t tc = opt.target_col;
  const std::size_t tr = std::min<std::size_t>(opt.target_row, rows - 1);

  // Line totals from the PDK wire constants and the cell pitch, the same
  // derivation as nvsim::ArrayModel::derive_geometry.
  const double wl_len = opt.cell_width_f * f * double(cols);
  const double bl_len = opt.cell_height_f * f * double(rows);
  const LineRc wl = line_rc(pdk.cmos.wire_r_per_m * wl_len,
                            pdk.cmos.wire_c_per_m * wl_len +
                                opt.c_cell_gate * double(cols),
                            cols, opt.segments);
  const LineRc bl = line_rc(pdk.cmos.wire_r_per_m * bl_len,
                            pdk.cmos.wire_c_per_m * bl_len +
                                opt.c_cell_drain * double(rows),
                            rows, opt.segments);

  const double t_start = 0.5e-9;

  ArrayNetlist out;
  auto& ckt = out.circuit;

  // --- selected wordline: distributed RC, pulsed 0.2 ns before the data ---
  const int wl_drv = ckt.node("wl.0");
  {
    int prev = wl_drv;
    for (std::size_t s = 1; s <= wl.segments; ++s) {
      const int cur = ckt.node("wl." + std::to_string(s));
      ckt.add(std::make_unique<Resistor>("rwl" + std::to_string(s), prev, cur,
                                         std::max(wl.r_seg, 1e-3)));
      ckt.add(std::make_unique<Capacitor>("cwl" + std::to_string(s), cur,
                                          spice::kGround, wl.c_seg));
      prev = cur;
    }
  }
  out.v_wordline = "vwl";
  ckt.add(std::make_unique<VoltageSource>(
      "vwl", wl_drv, spice::kGround,
      std::make_unique<PulseWave>(0.0, vdd, t_start - 0.2e-9, 50e-12, 50e-12,
                                  spec.pulse_width + 0.4e-9)));

  // --- per-column bitline + source line + the selected-row cell ---
  out.row_mtjs.resize(cols, nullptr);
  for (std::size_t c = 0; c < cols; ++c) {
    const std::string cs = std::to_string(c);
    const int bl0 = ckt.node("bl." + cs + ".0");
    int prev = bl0;
    for (std::size_t s = 1; s <= bl.segments; ++s) {
      const int cur = ckt.node("bl." + cs + "." + std::to_string(s));
      ckt.add(std::make_unique<Resistor>("rbl" + cs + "_" + std::to_string(s),
                                         prev, cur,
                                         std::max(bl.r_seg, 1e-3)));
      ckt.add(std::make_unique<Capacitor>("cbl" + cs + "_" +
                                              std::to_string(s),
                                          cur, spice::kGround, bl.c_seg));
      prev = cur;
    }
    const std::size_t bl_tap = tap_index(tr, rows, bl.segments);
    const int bl_cell = ckt.node("bl." + cs + "." + std::to_string(bl_tap));
    const int sl = ckt.node("sl." + cs);
    const int n1 = ckt.node("n." + cs);
    const std::size_t wl_tap = tap_index(c, cols, wl.segments);
    const int gate = ckt.node("wl." + std::to_string(wl_tap));

    // Lumped source-line loading mirrors the bitline total.
    ckt.add(std::make_unique<Capacitor>("csl" + cs, sl, spice::kGround,
                                        bl.c_seg * double(bl.segments)));

    const MtjState init = c == tc ? spec.target_state : opt.unselected_state;
    out.row_mtjs[c] = ckt.add(std::make_unique<MtjDevice>(
        "xmtj" + cs, bl_cell, n1, pdk.mtj, init));
    ckt.add(std::make_unique<Mosfet>(
        "macc" + cs, n1, gate, sl, cards.nmos,
        opt.access_width_factor * cards.w_min, cards.l_min));

    if (c == tc) {
      out.target_mtj = out.row_mtjs[c];
      out.bl_drive_node = "bl." + cs + ".0";
      out.sl_drive_node = "sl." + cs;
      out.bl_cell_node = "bl." + cs + "." + std::to_string(bl_tap);
    } else {
      // Inhibited column: both line ends tied to ground through the driver.
      ckt.add(std::make_unique<Resistor>("rdbl" + cs, bl0, spice::kGround,
                                         opt.r_driver_off));
      ckt.add(std::make_unique<Resistor>("rdsl" + cs, sl, spice::kGround,
                                         opt.r_driver_off));
    }
  }

  // --- selected-column drive ---
  const int bl_drv = ckt.find_node(out.bl_drive_node);
  const int sl_drv = ckt.find_node(out.sl_drive_node);
  out.v_bitline = "vbl";
  out.v_sourceline = "vsl";
  if (spec.is_write) {
    const bool to_p = spec.dir == WriteDirection::ToParallel;
    ckt.add(std::make_unique<VoltageSource>(
        "vbl", bl_drv, spice::kGround,
        std::make_unique<PulseWave>(0.0, to_p ? vdd : 0.0, t_start, 50e-12,
                                    50e-12, spec.pulse_width)));
    ckt.add(std::make_unique<VoltageSource>(
        "vsl", sl_drv, spice::kGround,
        std::make_unique<PulseWave>(0.0, to_p ? 0.0 : vdd, t_start, 50e-12,
                                    50e-12, spec.pulse_width)));
  } else {
    ckt.add(std::make_unique<VoltageSource>(
        "vbl", bl_drv, spice::kGround, std::make_unique<DcWave>(pdk.v_read)));
    ckt.add(std::make_unique<VoltageSource>(
        "vsl", sl_drv, spice::kGround, std::make_unique<DcWave>(0.0)));
  }

  out.dim = ckt.assign_unknowns();
  return out;
}

} // namespace

ArrayNetlist build_array_write_netlist(const core::Pdk& pdk,
                                       const ArrayNetlistOptions& opt,
                                       WriteDirection dir,
                                       double pulse_width) {
  ArrayBuildSpec spec;
  spec.is_write = true;
  spec.dir = dir;
  spec.pulse_width = pulse_width;
  // The target cell starts in the state the write must flip.
  spec.target_state = dir == WriteDirection::ToParallel
                          ? MtjState::Antiparallel
                          : MtjState::Parallel;
  return build_common(pdk, opt, spec);
}

ArrayNetlist build_array_read_netlist(const core::Pdk& pdk,
                                      const ArrayNetlistOptions& opt,
                                      MtjState state, double t_read) {
  ArrayBuildSpec spec;
  spec.is_write = false;
  spec.pulse_width = t_read;
  spec.target_state = state;
  return build_common(pdk, opt, spec);
}

} // namespace mss::cells
