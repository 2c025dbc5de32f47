// WER-vs-pulse-width scenario family — the rare-event reliability sweep.
//
// Production STT-MRAM write paths are specified at error rates the paper's
// own figures could never reach by simulation (1e-9 .. 1e-15). This
// scenario family sweeps pulse width x write voltage x temperature on the
// sweep layer and reports, per operating point:
//  * the behavioural closed form (Jabeur'14 regimes),
//  * the ic-spread deep-tail analytic closed form (math::log_erfc path),
//  * optionally the importance-sampled LLGS Monte-Carlo estimate with its
//    relative-error bound (physics::LlgSolver::estimate_wer) — the overlay
//    that validates the analytic tails in the overlap regime.
//
// Runs under the sweep determinism contract: per-point RNG streams keyed
// by the Runner. With an MC overlay the points run one after another and
// each point's trajectories spread across the pool (the estimator keys a
// substream per trajectory and combines fixed chunks in order); an
// analytic-only sweep runs its points across the pool instead. Either
// way every table is bit-identical for any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/compact_model.hpp"
#include "core/mtj_params.hpp"
#include "sweep/result_table.hpp"

namespace mss::core {

/// Inputs of a WER-vs-pulse-width sweep.
struct WerScenarioConfig {
  MtjParams device;                  ///< baseline stack (temperature swept)
  WriteDirection direction = WriteDirection::ToAntiparallel; ///< hard dir
  std::vector<double> pulse_widths;  ///< pulse-width axis [s]
  std::vector<double> voltages;      ///< write-voltage axis [V]
  std::vector<double> temperatures;  ///< temperature axis [K]
  double sigma_ic_rel = 0.03;        ///< ic spread of the analytic tail
  /// IS-MC trajectories per point; 0 = analytic-only sweep (no LLGS).
  std::size_t trajectories = 0;
  double dt = 1e-12;                 ///< LLGS step [s]
  std::uint64_t seed = 0x5EEDC0DEull; ///< base seed of the per-point streams
  /// Thread policy (0 = the global pool, 1 = serial, N = N threads): the
  /// estimator's trajectories when trajectories > 0, else the points.
  std::size_t threads = 0;
};

/// One evaluated operating point.
struct WerScenarioPoint {
  double pulse_width = 0.0;  ///< [s]
  double voltage = 0.0;      ///< [V]
  double temperature = 0.0;  ///< [K]
  double i_write = 0.0;      ///< drive current the voltage produces [A]
  double log10_wer_behavioural = 0.0; ///< Jabeur'14 closed form
  double log10_wer_analytic = 0.0;    ///< ic-spread deep-tail closed form
  WerEstimate mc;            ///< IS-MC estimate (zeroed when disabled)
};

/// The scenario runner.
class WerScenario {
 public:
  /// Validates the axes (all non-empty, pulse widths positive).
  explicit WerScenario(WerScenarioConfig cfg);

  [[nodiscard]] const WerScenarioConfig& config() const { return cfg_; }

  /// Evaluates every (pulse, voltage, temperature) point, row-major with
  /// temperature varying fastest. Bit-identical for any thread count.
  [[nodiscard]] std::vector<WerScenarioPoint> run() const;

  /// run() assembled into a ResultTable (console/CSV/JSON ready):
  /// columns pulse_s, v_write, temp_k, i_write_a, log10_wer_behav,
  /// log10_wer_analytic, wer_mc, rel_err_mc, ess_mc, ic_shift_mc.
  [[nodiscard]] sweep::ResultTable table() const;

 private:
  WerScenarioConfig cfg_;
};

} // namespace mss::core
