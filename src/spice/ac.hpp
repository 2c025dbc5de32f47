// AC small-signal analysis: linearises the circuit at its DC operating
// point and solves the complex MNA system across a frequency sweep —
// needed for the analog MSS work (sensor read-out bandwidth, oscillator
// interface chains).
//
// Elements participate through Element-type dispatch inside the analyser
// (resistor/capacitor/inductor/sources/controlled/MOSFET/diode/MTJ); the
// MOSFET and diode contribute their small-signal conductances evaluated at
// the DC operating point. Independent sources are shorted/opened except
// voltage sources flagged with `set_ac` which inject the stimulus.
#pragma once

#include <complex>
#include <string>
#include <unordered_map>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/sparse.hpp"

namespace mss::spice {

/// AC analysis configuration.
struct AcOptions {
  Ordering ordering = Ordering::Auto; ///< sparse column-ordering policy
  bool stamp_cache = true; ///< per-element stamp-slot caching (A/B knob)
};

/// Frequency-response of one run.
class AcResult {
 public:
  /// Swept frequencies [Hz].
  [[nodiscard]] const std::vector<double>& frequencies() const {
    return freqs_;
  }
  /// Complex node voltage at sweep point k.
  [[nodiscard]] std::complex<double> v(const std::string& node,
                                       std::size_t k) const;
  /// Magnitude |v(node)| at sweep point k.
  [[nodiscard]] double magnitude(const std::string& node,
                                 std::size_t k) const;
  /// Magnitude in dB.
  [[nodiscard]] double magnitude_db(const std::string& node,
                                    std::size_t k) const;
  /// Phase [rad].
  [[nodiscard]] double phase(const std::string& node, std::size_t k) const;
  /// Whether every point solved.
  [[nodiscard]] bool converged() const { return converged_; }

 private:
  friend AcResult ac_analysis(Circuit&, const std::vector<double>&,
                              const AcOptions&);
  std::vector<double> freqs_;
  std::vector<std::vector<std::complex<double>>> samples_;
  std::unordered_map<std::string, std::size_t> node_index_;
  bool converged_ = true;
};

/// Logarithmically spaced frequency grid [f_lo, f_hi] with `per_decade`
/// points per decade.
[[nodiscard]] std::vector<double> log_sweep(double f_lo, double f_hi,
                                            int per_decade = 10);

/// Runs the AC analysis over `freqs`. Computes the DC operating point
/// first (throws std::runtime_error if it does not converge), then solves
/// the complex linearised system per frequency on the sparse LU, whose
/// symbolic structure is reused across the sweep.
[[nodiscard]] AcResult ac_analysis(Circuit& circuit,
                                   const std::vector<double>& freqs,
                                   const AcOptions& options = {});

} // namespace mss::spice
