// Array-level netlist builder: a rows x cols block of 1T-1MTJ bit cells
// with distributed wordline/bitline parasitics, for SPICE characterisation
// at array scale through the sparse MNA solver.
//
// Modelling choices (the standard characterisation reduction):
//  * the selected wordline carries one full device cell (access NMOS + MTJ)
//    per column — the half-selected row is what loads the write/read path;
//  * unselected rows contribute their drain-junction capacitance to the
//    bitline segments and their gate capacitance to nothing (their
//    wordlines are held at ground and not simulated);
//  * every bitline and the selected wordline are distributed RC lines with
//    a configurable segment count (`segments` of 0 selects one segment
//    per cell, the full-fidelity grid);
//  * unselected columns are tied to their inhibit level through the driver
//    resistance, the selected column is driven by ideal pulse sources.
//
// A 64 x 64 build with segments = 0 assembles ~4.4k unknowns, far past
// what a dense LU could factor per Newton iteration; like every netlist, it
// solves on the flat sparse LU.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/compact_model.hpp"
#include "core/pdk.hpp"
#include "spice/circuit.hpp"
#include "spice/mtj_element.hpp"

namespace mss::cells {

/// Geometry/fidelity options of the array build.
struct ArrayNetlistOptions {
  std::size_t rows = 64;        ///< wordlines
  std::size_t cols = 64;        ///< bitlines
  std::size_t target_col = 0;   ///< column of the accessed cell
  /// Row of the selected wordline; positions the cell tap along the
  /// bitline RC. Defaults to the far end (worst case) when >= rows.
  std::size_t target_row = std::size_t(-1);
  /// Bitline/wordline RC segments per line; 0 = one segment per cell (full
  /// fidelity). Coarser counts lump the same total R/C into fewer nodes.
  std::size_t segments = 8;
  double access_width_factor = 8.0; ///< access NMOS width in W_min units
  double r_driver_off = 200.0;      ///< unselected-line tie resistance [Ohm]
  /// Cell pitch in feature sizes (matches nvsim::ArrayModel's footprint).
  double cell_width_f = 6.0;
  double cell_height_f = 7.0;
  /// Per-cell line loading (drain junction on the bitline, gate on the
  /// wordline), matching the nvsim array geometry derivation.
  double c_cell_drain = 0.04e-15;   ///< [F]
  double c_cell_gate = 0.05e-15;    ///< [F]
  core::MtjState unselected_state = core::MtjState::Antiparallel;
  double sim_dt = 20e-12;           ///< transient step [s]
};

/// A built array netlist: the circuit plus handles into it. Movable; the
/// element pointers stay valid (elements are heap-owned by the circuit).
struct ArrayNetlist {
  spice::Circuit circuit;
  spice::MtjDevice* target_mtj = nullptr;          ///< the accessed cell
  std::vector<spice::MtjDevice*> row_mtjs;         ///< selected row, by column
  std::string v_bitline;   ///< name of the selected-column BL source
  std::string v_sourceline;///< name of the selected-column SL source
  std::string v_wordline;  ///< name of the wordline driver source
  std::string bl_drive_node; ///< BL node the selected-column source drives
  std::string sl_drive_node; ///< SL node the selected-column source drives
  std::string bl_cell_node;///< BL node name at the target cell's tap
  std::size_t dim = 0;     ///< unknown count of the assembled system
};

/// Builds the write netlist: the target column driven BL/SL per direction
/// (ToParallel pushes current BL -> SL), unselected columns inhibited at
/// ground, wordline pulsed for `pulse_width` after a 0.5 ns lead-in.
/// The target MTJ starts in the state the write must flip.
[[nodiscard]] ArrayNetlist build_array_write_netlist(
    const core::Pdk& pdk, const ArrayNetlistOptions& opt,
    core::WriteDirection dir, double pulse_width);

/// Builds the read netlist: the target column's bitline biased at the PDK
/// read voltage, wordline pulsed for `t_read`, target MTJ in `state`.
[[nodiscard]] ArrayNetlist build_array_read_netlist(
    const core::Pdk& pdk, const ArrayNetlistOptions& opt,
    core::MtjState state, double t_read);

} // namespace mss::cells
