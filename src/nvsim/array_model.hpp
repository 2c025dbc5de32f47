// NVSim-style analytical model of an STT-MRAM array (Dong et al., TCAD'12
// is the reference the paper builds VAET-STT upon; this is our from-scratch
// equivalent covering the quantities VAET-STT consumes).
//
// The array is a rows x cols subarray of 1T-1MTJ cells with row decoder,
// wordline drivers, per-column write drivers / sense amplifiers behind a
// column mux, accessed `word_bits` at a time.
//
// Latency model
//   read  = t_decoder + t_wordline + t_bitline_develop + t_senseamp
//   write = t_decoder + t_wordline + t_driver + t_mtj_switch
// with wordline/bitline RC from distributed-Elmore (0.38 R C), decoder from
// an FO4-scaled chain, bitline develop from the differential cell current
// charging the bitline capacitance to the sense margin.
//
// Energy model: switched capacitance of the activated lines + MTJ write
// (I * Vdd * t_pulse per bit) + sense + decoder; leakage from total
// periphery transistor width (the MTJ array itself has no leakage path —
// the non-volatility benefit MAGPIE exploits at system level).
//
// Area model: cell area (F^2-based) + decoder/driver/sense periphery with
// an overhead factor.
#pragma once

#include <cstddef>

#include "core/pdk.hpp"

namespace mss::nvsim {

/// Sense swing required beyond the amplifier offset [V]; the nominal
/// margin adds a 2-sigma offset allowance on top of this. The VAET layer
/// uses the same resolve value with *sampled* offsets.
extern const double kSenseResolveV;

/// Memory organisation of one subarray/mat.
struct ArrayOrg {
  std::size_t rows = 1024;
  std::size_t cols = 1024;
  std::size_t word_bits = 512; ///< bits accessed per read/write

  /// Column multiplexing degree implied by cols / word_bits (>= 1).
  [[nodiscard]] std::size_t col_mux() const {
    return word_bits == 0 ? 1 : (cols + word_bits - 1) / word_bits;
  }
};

/// Physical/electrical constants of the array derived from the PDK; kept
/// public so the VAET layer can re-evaluate pieces under variation.
struct ArrayGeometry {
  double cell_w = 0.0;    ///< cell pitch along the wordline [m]
  double cell_h = 0.0;    ///< cell pitch along the bitline [m]
  double wl_len = 0.0;    ///< wordline length [m]
  double bl_len = 0.0;    ///< bitline length [m]
  double r_wordline = 0.0; ///< total wordline resistance [Ohm]
  double c_wordline = 0.0; ///< total wordline capacitance [F]
  double r_bitline = 0.0;  ///< total bitline resistance [Ohm]
  double c_bitline = 0.0;  ///< total bitline capacitance [F]
};

/// Latency / energy / area summary with per-component breakdown.
struct MemoryEstimate {
  // totals
  double read_latency = 0.0;  ///< [s]
  double write_latency = 0.0; ///< [s]
  double read_energy = 0.0;   ///< [J] per access
  double write_energy = 0.0;  ///< [J] per access
  double leakage_power = 0.0; ///< [W]
  double area = 0.0;          ///< [m^2]

  // latency breakdown
  double t_decoder = 0.0;
  double t_wordline = 0.0;
  double t_bitline = 0.0;
  double t_senseamp = 0.0;
  double t_driver = 0.0;
  double t_mtj_switch = 0.0;

  // energy breakdown
  double e_decoder = 0.0;
  double e_wordline = 0.0;
  double e_bitline_read = 0.0;
  double e_senseamp = 0.0;
  double e_bitline_write = 0.0;
  double e_mtj_write = 0.0;
};

/// The array estimator.
class ArrayModel {
 public:
  /// Uses the PDK's analytic cell extraction.
  ArrayModel(core::Pdk pdk, ArrayOrg org);
  /// Uses externally extracted cell parameters (e.g. from the SPICE flow).
  ArrayModel(core::Pdk pdk, ArrayOrg org, core::CellParams cell);

  /// Nominal (variation-unaware) estimate — NVSim's role in the paper.
  [[nodiscard]] MemoryEstimate estimate() const;

  /// Re-evaluates with overridden per-access quantities; the VAET layer
  /// uses this to propagate sampled variation through the array model.
  /// `t_mtj_switch` / `delta_i_sense` replace the nominal cell behaviour;
  /// `sense_margin_v` the required bitline swing.
  [[nodiscard]] MemoryEstimate estimate_with(double t_mtj_switch,
                                             double i_write,
                                             double delta_i_sense,
                                             double sense_margin_v) const;

  /// SPICE-calibrated estimate: runs array-scale write and read transients
  /// (cells::characterize_array_*, sparse MNA backend) on this organisation
  /// — clamped to `max_rows` x `max_cols` cells to bound simulation cost —
  /// and replaces the analytic switching time, write current, and read
  /// margin with the extracted values. The wordline/bitline RC the analytic
  /// Elmore terms approximate is simulated explicitly in the netlist, on
  /// the fixed-step reference grid.
  [[nodiscard]] MemoryEstimate estimate_spice(std::size_t max_rows = 64,
                                              std::size_t max_cols = 64) const;

  /// Derived geometry/RC view.
  [[nodiscard]] const ArrayGeometry& geometry() const { return geom_; }
  /// The cell parameters in use.
  [[nodiscard]] const core::CellParams& cell() const { return cell_; }
  /// The organisation.
  [[nodiscard]] const ArrayOrg& org() const { return org_; }
  /// The PDK.
  [[nodiscard]] const core::Pdk& pdk() const { return pdk_; }

  /// Nominal sense margin (bitline swing the sensing scheme requires) [V].
  [[nodiscard]] double sense_margin() const;

  /// Fixed (non-cell) part of the read path: decoder + wordline + SA [s].
  [[nodiscard]] double read_periphery_latency() const;
  /// Fixed part of the write path: decoder + wordline + driver [s].
  [[nodiscard]] double write_periphery_latency() const;

 private:
  core::Pdk pdk_;
  ArrayOrg org_;
  core::CellParams cell_;
  ArrayGeometry geom_;

  void derive_geometry();
  [[nodiscard]] double decoder_delay() const;
  [[nodiscard]] double wordline_delay() const;
  [[nodiscard]] double bitline_develop_time(double delta_i,
                                            double margin_v) const;
};

} // namespace mss::nvsim
