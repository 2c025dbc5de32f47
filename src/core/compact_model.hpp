// Memory-mode compact model of the MSS MTJ.
//
// Implements both compact-modelling strategies compared in Jabeur et al.,
// "Comparison of Verilog-A compact modelling strategies for spintronic
// devices" (Electronics Letters 2014), which the paper's PDK builds on:
//
//  * the *behavioural* strategy — closed-form expressions for resistance,
//    TMR bias roll-off, critical current, switching time, write error rate
//    and read disturb (fast; what SPICE-level and array-level tools call
//    per Newton iteration / per bit);
//  * the *physical* strategy — macrospin LLGS trajectory integration
//    (slow; used for validation and for waveform-level studies).
//
// The two are cross-validated in tests and in `bench/ablation_model_strategies`.
#pragma once

#include <optional>

#include "core/mtj_params.hpp"
#include "physics/llg.hpp"
#include "physics/thermal.hpp"
#include "util/rng.hpp"

namespace mss::core {

/// Binary memory state of the junction.
enum class MtjState {
  Parallel,     ///< low resistance, logic '0' by project convention
  Antiparallel, ///< high resistance, logic '1'
};

/// Direction of a write operation.
enum class WriteDirection {
  ToParallel,     ///< AP -> P, positive current from reference to free layer
  ToAntiparallel, ///< P -> AP, needs ~ic0_asymmetry more current
};

/// Outcome of a stochastic write transient.
struct WriteOutcome {
  bool switched = false;     ///< did the state flip within the pulse
  double switch_time = 0.0;  ///< time of the flip [s] (valid if switched)
  double energy = 0.0;       ///< I^2 R integrated over the pulse [J]
};

/// Options of `MtjCompactModel::llgs_write_error_rate`.
struct WerEstimateOptions {
  std::size_t threads = 0; ///< see `physics::LlgWerOptions::threads`
  /// Relative switching-current spread sampled per trajectory (see
  /// `physics::LlgWerOptions::ic_sigma_rel`). When > 0 the estimator
  /// centres the threshold proposal on the analytic failure-transition
  /// band (the z-range where the residual barrier Delta (1 - i/Ic(z))^2
  /// crosses the ln(t/tau) attempt budget), widens it to cover the band
  /// and mixes in a 0.2 defensive fraction whenever it is shifted. 0 =
  /// pure-thermal plain MC.
  double ic_sigma_rel = 0.0;
  double dt = 1e-12; ///< LLGS integration step [s]
  /// Test and benchmark seam: replaces the band-derived proposal. {0, 1, 0}
  /// is the brute-force oracle; a pinned shifted proposal cross-checks the
  /// deep tail. Production callers leave it unset.
  std::optional<physics::ThresholdProposal> proposal;
};

/// Estimator statistics of one `llgs_write_error_rate` call.
using WerEstimate = physics::LlgWerEstimate;

/// Closed-form + LLGS compact model for the memory-mode MSS device.
class MtjCompactModel {
 public:
  /// Builds the model; validates `params`.
  explicit MtjCompactModel(MtjParams params);

  /// Device parameters.
  [[nodiscard]] const MtjParams& params() const { return params_; }

  // --- transport ---

  /// Junction resistance at the given state and bias voltage [Ohm].
  /// The AP branch rolls off with bias: TMR(V) = TMR0 / (1 + (V/Vh)^2).
  [[nodiscard]] double resistance(MtjState state, double v_bias = 0.0) const;

  /// TMR ratio at the given bias voltage.
  [[nodiscard]] double tmr(double v_bias) const;

  /// Conductance for an arbitrary angle theta between free and reference
  /// layers: G(theta) = G_T (1 + chi cos(theta)), chi = TMR/(2+TMR).
  /// theta = 0 is parallel. Used by the sensor and oscillator modes.
  [[nodiscard]] double conductance_at_angle(double cos_theta,
                                            double v_bias = 0.0) const;

  /// Read current when `v_read` is forced across the junction [A].
  [[nodiscard]] double read_current(MtjState state, double v_read) const;

  // --- switching, behavioural strategy ---

  /// Critical current of the transition [A].
  [[nodiscard]] double critical_current(WriteDirection dir) const;

  /// Deterministic (median) switching time at the given write current [s].
  /// Supercritical currents use the Sun precessional expression, subcritical
  /// the Neel-Brown median dwell time.
  [[nodiscard]] double switching_time(WriteDirection dir, double i_write) const;

  /// Write error rate after a pulse of width `t_pulse` at `i_write`.
  [[nodiscard]] double write_error_rate(WriteDirection dir, double i_write,
                                        double t_pulse) const;

  /// log(WER); valid deep into the tail (target rates to 1e-30).
  [[nodiscard]] double log_write_error_rate(WriteDirection dir, double i_write,
                                            double t_pulse) const;

  /// Pulse width needed to reach `target_wer` at `i_write` [s].
  [[nodiscard]] double pulse_width_for_wer(WriteDirection dir, double i_write,
                                           double target_wer) const;

  /// log(WER) under a Gaussian switching-current spread of relative width
  /// `sigma_rel` (sigma_Ic / Ic0) — the deep-tail analytic closed form,
  /// accurate to WER ~ 1e-300 via the scaled-erfc path. This is the
  /// curve the importance-sampled estimator is validated against in the
  /// overlap regime and extrapolates beyond it.
  [[nodiscard]] double log_write_error_rate_ic_spread(WriteDirection dir,
                                                      double i_write,
                                                      double t_pulse,
                                                      double sigma_rel) const;

  /// exp of `log_write_error_rate_ic_spread`, clamped to [1e-300, 1].
  [[nodiscard]] double write_error_rate_ic_spread(WriteDirection dir,
                                                  double i_write,
                                                  double t_pulse,
                                                  double sigma_rel) const;

  /// Closed-form pulse width reaching `target_wer` under the ic-spread
  /// tail model (no iteration — inverse-normal quantile) [s].
  [[nodiscard]] double pulse_width_for_wer_ic_spread(WriteDirection dir,
                                                     double i_write,
                                                     double target_wer,
                                                     double sigma_rel) const;

  /// Probability that a read pulse (current `i_read`, width `t_read`,
  /// destabilising direction) flips the cell — read disturb.
  [[nodiscard]] double read_disturb_probability(double i_read,
                                                double t_read) const;

  /// Thermal-stability retention time at zero bias [s].
  [[nodiscard]] double retention_time() const;

  /// Energy dissipated by a write pulse (I^2 R t with the state-dependent
  /// resistance averaged over the transition) [J].
  [[nodiscard]] double write_energy(WriteDirection dir, double i_write,
                                    double t_pulse) const;

  // --- switching, physical strategy (LLGS) ---

  /// Runs a stochastic LLGS write transient and reports whether the state
  /// flipped. `dt` defaults to 1 ps which resolves the ~GHz precession.
  [[nodiscard]] WriteOutcome llgs_write(WriteDirection dir, double i_write,
                                        double t_pulse, mss::util::Rng& rng,
                                        double dt = 1e-12) const;

  /// Monte-Carlo switching probability from `n` LLGS transients, run
  /// through the batched SIMD thermal-ensemble kernel: sharded across the
  /// shared thread pool (`threads`: 0 = the global pool, 1 = serial inline,
  /// N = a pool of that size) and stepped `physics::LlgSolver::kLanes`
  /// trajectories at a time inside each thread. Every transient draws from
  /// its own per-trajectory jump substream, so the result and the post-call
  /// state of `rng` are bit-identical for any thread count.
  [[nodiscard]] double llgs_switch_probability(WriteDirection dir,
                                               double i_write, double t_pulse,
                                               std::size_t n,
                                               mss::util::Rng& rng,
                                               std::size_t threads = 0) const;

  /// Importance-sampled LLGS write-error-rate estimate — the rare-event
  /// path of the physical strategy. Picks the threshold proposal (see
  /// `WerEstimateOptions`), runs `n` LLGS transients through
  /// `physics::LlgSolver::estimate_wer`, and returns the weighted estimate
  /// with its relative-error bound and effective sample size. With
  /// `ic_sigma_rel == 0` this degenerates to 1 - llgs_switch_probability(...)
  /// over the same substreams. Statistics and the post-call state of `rng`
  /// are bit-identical for any thread count.
  [[nodiscard]] WerEstimate llgs_write_error_rate(
      WriteDirection dir, double i_write, double t_pulse, std::size_t n,
      mss::util::Rng& rng, const WerEstimateOptions& options = {}) const;

  /// Analytic switching parameters handed to the physics layer (exposed for
  /// the variability analysis, which perturbs them per sampled device).
  [[nodiscard]] physics::SwitchingParams switching_params(
      WriteDirection dir) const;

 private:
  /// LLGS free-layer parameters shared by the physical-strategy paths.
  [[nodiscard]] physics::LlgParams llg_params() const;

  /// Start basin and signed stack current of an LLGS write — the one place
  /// the torque sign convention is encoded for both physical-strategy
  /// entry points (`llgs_write`, `llgs_switch_probability`).
  struct LlgsDrive {
    bool start_up;
    double current;
  };
  [[nodiscard]] static LlgsDrive llgs_drive(WriteDirection dir,
                                            double i_write);

  MtjParams params_;
};

} // namespace mss::core
