// Shared helpers for SPICE-based standard-cell characterisation: PDK ->
// transistor model cards, waveform energy integration, the
// template-netlist -> transient -> MDL -> parse pipeline of the paper's
// Fig. 10 circuit level, and the array-scale characterisation drivers
// (rows x cols bit-cell blocks with wordline/bitline parasitics, solved
// through the sparse MNA solver).
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "cells/array_netlist.hpp"
#include "core/pdk.hpp"
#include "spice/engine.hpp"
#include "spice/mdl.hpp"
#include "spice/mosfet.hpp"

namespace mss::cells {

/// Transistor model cards derived from a PDK node.
struct DeviceCards {
  spice::MosModel nmos;
  spice::MosModel pmos;
  double w_min = 0.0;   ///< minimum transistor width [m] (2 F)
  double l_min = 0.0;   ///< channel length [m] (1 F)
  double vdd = 1.1;     ///< supply [V]
};

/// Builds the model cards for a node.
[[nodiscard]] DeviceCards device_cards(const core::Pdk& pdk);

/// Formats a number for embedding in MDL script text. (std::to_string uses
/// fixed 6-decimal notation and truncates nanosecond-scale values to zero.)
[[nodiscard]] std::string mdl_num(double v);

/// Energy *delivered by* a grounded voltage source over the run [J]:
/// integral of -v(plus) * i_branch dt, following the SPICE convention that
/// the branch current flows from + through the source to - (a delivering
/// source therefore carries negative branch current). The run must have
/// probed `i(<vsource_name>)` and `v(<plus_node>)`.
[[nodiscard]] double source_energy(const spice::TransientResult& tr,
                                   const std::string& vsource_name,
                                   const std::string& plus_node);

/// Runs the rest of the paper pipeline on a transient that probed
/// `script.signals()`: evaluate the script, serialise the measurement file,
/// re-parse it, and return the extracted name->value map. Exercising the
/// round trip (rather than using the in-memory results directly) is
/// deliberate: it is the flow the paper describes.
[[nodiscard]] std::map<std::string, double> run_mdl_pipeline(
    const spice::TransientResult& tr, const spice::mdl::Script& script);

/// Outcome of an array-scale write characterisation.
struct ArrayWriteResult {
  bool switched = false;   ///< target cell reached the written state
  bool converged = false;  ///< every transient step converged
  double t_switch = 0.0;   ///< data-pulse start to state-flip delay [s]
  double energy = 0.0;     ///< energy delivered by the driving source [J]
  double i_peak = 0.0;     ///< peak target-cell stack current [A]
  double i_settled = 0.0;  ///< stack current just before the flip [A]
  std::size_t dim = 0;     ///< MNA unknowns of the array system
  std::size_t steps = 0;   ///< accepted transient steps
  // The one linear solver; the field stays because the end-to-end
  // benchmark digests it.
  std::string backend = "sparse";
  /// Total columns numerically factored over the run (the
  /// refactorization observable).
  std::size_t factor_cols = 0;
  // Always 0: the factorization has no column panels any more; the two
  // fields stay because the end-to-end benchmark digests them.
  std::size_t supernodes = 0;
  std::size_t supernode_cols = 0;
};

/// Outcome of an array-scale read characterisation (both states simulated).
struct ArrayReadResult {
  double i_cell_p = 0.0;   ///< settled read current, parallel state [A]
  double i_cell_ap = 0.0;  ///< settled read current, antiparallel state [A]
  double delta_i = 0.0;    ///< read margin current [A]
  double energy_read = 0.0;///< read energy per access (parallel state) [J]
  std::size_t dim = 0;
  std::size_t steps = 0;   ///< accepted steps of the last transient
  std::string backend = "sparse"; ///< see ArrayWriteResult::backend
  std::size_t factor_cols = 0;    ///< factored columns, both runs combined
};

/// Write characterisation of a full rows x cols array: builds the netlist
/// (array_netlist.hpp), runs the transient, and extracts switching delay /
/// energy / currents.
[[nodiscard]] ArrayWriteResult characterize_array_write(
    const core::Pdk& pdk, const ArrayNetlistOptions& opt,
    core::WriteDirection dir, double pulse_width);

/// Read characterisation of the array: two transients (P / AP target
/// state), settled current via the MDL measurement pipeline, margin as the
/// difference — the paper's netlist -> transient -> MDL -> parse flow at
/// array scale.
[[nodiscard]] ArrayReadResult characterize_array_read(
    const core::Pdk& pdk, const ArrayNetlistOptions& opt, double t_read);

} // namespace mss::cells
