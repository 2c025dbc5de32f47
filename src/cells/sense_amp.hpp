// Latch-type (precharged, cross-coupled) sense amplifier, characterised at
// transistor level. This is the cell the paper lists among the SPICE-
// analysed periphery ("sense amplifiers, and write circuits").
//
// Topology (classic current-latched SA):
//
//   precharge switches: outp/outn -> VDD while PC high
//   cross-coupled inverters between outp and outn (regeneration)
//   input pair: M1 (gate inp) discharges outp, M2 (gate inn) discharges outn
//   tail NMOS enabled by SE
//
// The characterisation reports the regeneration delay from sense-enable to
// a resolved output for a given input imbalance, the minimum resolvable
// imbalance at a given timing, and the per-operation energy.
#pragma once

#include "cells/characterization.hpp"
#include "core/pdk.hpp"

namespace mss::cells {

/// Sense-amp sizing/loading options.
struct SenseAmpOptions {
  double input_pair_width_factor = 6.0; ///< in units of W_min
  double latch_width_factor = 4.0;
  double tail_width_factor = 8.0;
  double c_out = 5e-15;  ///< output node loading [F]
  double sim_dt = 5e-12; ///< transient step [s]
};

/// One sense resolution run.
struct SenseAmpResult {
  bool resolved = false;     ///< outputs separated past Vdd/2 within the run
  bool decision_correct = false; ///< higher input produced logic-1 output
  double t_resolve = 0.0;    ///< SE-rise to resolved-output delay [s]
  double energy = 0.0;       ///< energy drawn from VDD for the operation [J]
};

/// The sense amplifier characterisation driver.
class SenseAmp {
 public:
  SenseAmp(core::Pdk pdk, SenseAmpOptions options = {});

  /// Resolves inputs v_plus vs v_minus (volts at the input-pair gates).
  [[nodiscard]] SenseAmpResult resolve(double v_plus, double v_minus) const;

  /// The PDK in use.
  [[nodiscard]] const core::Pdk& pdk() const { return pdk_; }

 private:
  core::Pdk pdk_;
  SenseAmpOptions opt_;
};

} // namespace mss::cells
