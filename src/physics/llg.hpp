// Macrospin Landau-Lifshitz-Gilbert-Slonczewski (LLGS) integrator.
//
// This is the "physical" compact-modelling strategy of Jabeur et al.
// (Electronics Letters 2014), the model family the paper's PDK is built on:
// the MTJ free layer is a single macrospin with uniaxial perpendicular
// anisotropy, optional in-plane bias field (the MSS permanent magnets),
// Slonczewski spin-transfer torque from the stack current, and an optional
// stochastic thermal field (Brown).
//
// Conventions:
//  * magnetisation is the unit vector m; the easy axis is +z,
//  * fields H are in A/m; the torque uses gamma * mu0 * H,
//  * positive current I drives the free layer towards the polariser
//    direction p (i.e. favours the parallel state for p = +z).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "physics/vec3.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mss::physics {

/// Free-layer parameters seen by the LLGS integrator.
struct LlgParams {
  double ms = 1.0e6;          ///< saturation magnetisation [A/m]
  double alpha = 0.015;       ///< Gilbert damping
  double hk_eff = 1.6e5;      ///< effective perpendicular anisotropy field [A/m]
  double volume = 1.6e-24;    ///< free-layer volume [m^3]
  double area = 1.26e-15;     ///< junction area [m^2]
  double t_fl = 1.3e-9;       ///< free-layer thickness [m]
  double polarization = 0.6;  ///< spin polarisation of the reference layer
  double temperature = 300.0; ///< [K]
  Vec3 polarizer{0.0, 0.0, 1.0}; ///< reference-layer magnetisation direction
  Vec3 h_applied{0.0, 0.0, 0.0}; ///< external + bias field [A/m]

  /// Spin-torque prefactor a_j = hbar * P * J / (2 e mu0 Ms t_fl) for a
  /// stack current `i_amps`, expressed as an equivalent field [A/m].
  [[nodiscard]] double stt_field(double i_amps) const;

  /// Thermal stability factor Delta = Keff*V/(kB*T) with
  /// Keff = mu0*Ms*Hk_eff/2.
  [[nodiscard]] double delta() const;
};

/// One LLGS trajectory sample.
struct LlgSample {
  double t = 0.0; ///< time [s]
  Vec3 m;         ///< unit magnetisation
};

/// Result of an integration run.
struct LlgRun {
  std::vector<LlgSample> trajectory; ///< sampled every `record_stride` steps
  bool switched = false;             ///< crossed m_z = 0 from the start basin
  double switch_time = 0.0;          ///< first crossing time [s] (if switched)
  Vec3 m_final;                      ///< magnetisation at the end of the run
};

/// Switching statistics of a thermal trajectory ensemble. Trajectories are
/// never materialized — only the per-trajectory switch outcome feeds the
/// accumulators, so memory stays O(1) in the trajectory count and length.
struct LlgEnsembleResult {
  std::size_t n_trajectories = 0; ///< ensemble size
  std::size_t n_switched = 0;     ///< trajectories that crossed m_z = 0
  mss::util::RunningStats switch_time; ///< over the switched subset [s]
  double mean_mz_final = 0.0;     ///< ensemble-mean final m_z (diagnostic)

  /// Switching probability within the pulse.
  [[nodiscard]] double p_switch() const {
    return n_trajectories ? double(n_switched) / double(n_trajectories) : 0.0;
  }
};

/// Options of `LlgSolver::integrate_thermal_ensemble`.
struct LlgEnsembleOptions {
  /// Worker threads: 0 = all hardware threads (shared pool), 1 = serial,
  /// N = dedicated pool of N. Statistics are bit-identical for any value.
  std::size_t threads = 0;
};

/// Importance-sampling proposal of the per-trajectory switching-threshold
/// deviate (see `LlgWerOptions::ic_sigma_rel`). The deviate z ~ N(0, 1)
/// is drawn instead from the defensive mixture
/// lambda N(0, 1) + (1 - lambda) N(shift, sd^2) (Hesterberg), and each
/// trajectory carries the exact likelihood ratio
/// phi(z) / [lambda phi(z) + (1 - lambda) q(z)] as its weight. Only this
/// one scalar per trajectory is re-weighted, so the weights do not
/// degenerate with the length of the noise path. The default {0, 1, 0} is
/// the target itself: plain MC, weights identically 1.
struct ThresholdProposal {
  /// Mean of the shifted component; >= 0. Parking it on the failure band
  /// (where Ic(z) meets the drive) keeps proposal failures O(1)-probable
  /// at any tail depth.
  double shift = 0.0;
  /// Width of the shifted component; >= 1. The activated-escape transition
  /// from "switches anyway" to "fails for sure" is smeared over several
  /// z-units at memory-grade Delta, and a unit-width proposal parked on its
  /// sharp edge leaves the heavy-weight low-z failures uncovered.
  double sd = 1.0;
  /// Mixture fraction lambda in [0, 1) drawn from the N(0, 1) target. It
  /// caps every weight at 1 / lambda wherever the target has mass, so a
  /// mis-centred proposal degrades the error bar instead of silently
  /// dropping probability mass; 0 keeps the pure shifted proposal.
  double defensive = 0.0;

  bool operator==(const ThresholdProposal&) const = default;
};

/// Options of `LlgSolver::estimate_wer`.
struct LlgWerOptions {
  /// Worker threads: same contract as `LlgEnsembleOptions::threads`.
  std::size_t threads = 0;
  /// Relative 1-sigma spread of the per-trajectory switching threshold
  /// (critical current): each trajectory k draws its deviate z_k from
  /// `proposal` on its own substream (before the cone draws) and runs with
  /// its spin-torque prefactor scaled by 1 / (1 + ic_sigma_rel * z_k) —
  /// i.e. against a device whose critical current is Ic0 (1 + sigma z_k).
  /// 0 (the default) disables the draw entirely (pure-thermal plain MC,
  /// stream layout unchanged) and admits only the default proposal.
  double ic_sigma_rel = 0.0;
  /// Threshold-deviate proposal. Validated by `estimate_wer`: shift >= 0,
  /// sd >= 1, 0 <= defensive < 1, and anything but {0, 1, 0} needs
  /// ic_sigma_rel > 0.
  ThresholdProposal proposal;
};

/// Importance-sampled write-error-rate estimate returned by
/// `LlgSolver::estimate_wer`. All statistics obey the determinism
/// contract: bit-identical for any thread count.
struct LlgWerEstimate {
  double wer = 0.0;       ///< estimated P(no switch within the pulse)
  double variance = 0.0;  ///< variance of the estimate (of the mean)
  double rel_error = 0.0; ///< sqrt(variance) / wer (0 when wer == 0)
  double ess = 0.0; ///< effective sample size (sum w)^2 / sum w^2 of failures
  ThresholdProposal proposal; ///< threshold proposal actually used
  std::size_t n_trajectories = 0; ///< trajectories integrated
  std::size_t n_failures = 0;     ///< trajectories that failed to switch
};

/// Defined after `LlgSolver`, whose `kLanes` sizes its lane arrays.
struct LlgBatchRun;

/// Macrospin integrator. Deterministic runs use classic RK4; finite
/// temperature uses the stochastic Heun scheme (Stratonovich-consistent),
/// with the Brown thermal-field variance
/// sigma_H^2 = 2 alpha kB T / (gamma mu0^2 Ms V dt).
class LlgSolver {
 public:
  explicit LlgSolver(LlgParams params);

  /// Read access to the parameters.
  [[nodiscard]] const LlgParams& params() const { return params_; }

  /// Deterministic RK4 integration from `m0` for `duration` seconds with a
  /// fixed step `dt`, driving current `i_amps` through the stack.
  /// Records every `record_stride`-th step into the trajectory;
  /// `record_stride == 0` disables recording entirely (switch detection and
  /// `m_final` still work, and the run performs no heap allocation) — the
  /// mode ensemble sweeps use.
  [[nodiscard]] LlgRun integrate(const Vec3& m0, double duration, double dt,
                                 double i_amps,
                                 std::size_t record_stride = 16) const;

  /// Stochastic (finite-temperature) Heun integration. Same contract as
  /// `integrate` (including `record_stride == 0`), but adds the thermal
  /// field drawn from `rng`.
  [[nodiscard]] LlgRun integrate_thermal(const Vec3& m0, double duration,
                                         double dt, double i_amps,
                                         mss::util::Rng& rng,
                                         std::size_t record_stride = 16) const;

  /// Runs `n_trajectories` thermal trajectories (same start basin, pulse
  /// and step as a single `integrate_thermal` call) across the thread pool
  /// and, inside each thread, `kLanes` SIMD lanes at a time, and reduces
  /// them to switching-time statistics without recording any trajectory.
  /// Every trajectory is keyed to its own Xoshiro jump substream
  /// (per-trajectory, not per-chunk), so the statistics are bit-identical
  /// for any thread count; `rng` is advanced once to derive the streams.
  /// Trajectory k starts from a thermal-cone draw in the basin of `m0`,
  /// and its result is exactly the scalar reference
  /// `integrate_thermal(thermal_initial_state(...), ..., streams[k], 0)`.
  [[nodiscard]] LlgEnsembleResult integrate_thermal_ensemble(
      std::size_t n_trajectories, const Vec3& m0, double duration, double dt,
      double i_amps, mss::util::Rng& rng,
      const LlgEnsembleOptions& options = {}) const;

  /// Trajectories stepped together by the batched thermal kernel, one
  /// structure-of-arrays lane each. The statistics do not depend on it
  /// (every trajectory owns its substream and lane operations are
  /// lane-wise); 4 measured fastest against 1 and 8 lanes (see
  /// src/physics/README.md).
  static constexpr std::size_t kLanes = 4;

  /// Steps `kLanes` independent thermal trajectories, one per SIMD lane,
  /// with the stochastic Heun scheme. Lane k starts at `m0[k]` and draws
  /// its thermal field from `lane_rngs[k]` — per-lane streams, so lane k's
  /// trajectory is bit-identical to a scalar `integrate_thermal` run on
  /// (m0[k], lane_rngs[k]) regardless of the other lanes. Lanes
  /// with a clear bit in `active_mask` are idle: they draw nothing and
  /// report empty results (how a partial tail batch rides in a full-width
  /// kernel). With `stop_on_switch`, a lane that crosses m_z = 0 records
  /// its result, stops drawing, and the kernel returns early once every
  /// active lane has finished or switched (`steps_run` reports the drain
  /// point). `stt_scale`, when non-null, multiplies the spin-torque
  /// prefactor of lane l by (*stt_scale)[l] — physically a per-device
  /// critical-current scale of 1/(*stt_scale)[l], which is how the
  /// rare-event estimator folds per-trajectory switching-threshold spread
  /// into one SIMD batch. Null (the default) keeps every lane at the
  /// shared coefficient, bit-identical to the pre-scale kernel.
  [[nodiscard]] LlgBatchRun integrate_thermal_batch(
      const std::array<Vec3, kLanes>& m0, double duration, double dt,
      double i_amps, mss::util::Rng* lane_rngs, std::uint32_t active_mask,
      bool stop_on_switch = false,
      const std::array<double, kLanes>* stt_scale = nullptr) const;

  /// Effective field (anisotropy + applied) at magnetisation m, in A/m.
  [[nodiscard]] Vec3 effective_field(const Vec3& m) const;

  /// Right-hand side dm/dt of the explicit LLGS equation at (m, field H,
  /// current I).
  [[nodiscard]] Vec3 rhs(const Vec3& m, const Vec3& h, double i_amps) const;

  /// Draws an initial magnetisation from the thermal-equilibrium
  /// distribution around +z or -z (small-angle Boltzmann cone,
  /// <theta^2> = 1/Delta for a 2-D Gaussian cone approximation).
  [[nodiscard]] Vec3 thermal_initial_state(bool up, mss::util::Rng& rng) const;

  /// SoA-batched form of `thermal_initial_state`: fills `starts[l]` for
  /// every lane whose bit is set in `active_mask`, lane l drawing its two
  /// transverse components from `lane_rngs[l]` in the scalar order — so
  /// lane l's start is bit-identical to the scalar
  /// `thermal_initial_state(up, lane_rngs[l])` regardless of the other
  /// lanes. Inactive lanes draw nothing and are left untouched.
  void thermal_initial_state_batch(bool up, mss::util::Rng* lane_rngs,
                                   std::uint32_t active_mask,
                                   std::array<Vec3, kLanes>& starts) const;

  /// Importance-sampled write-error-rate estimator: the rare-event
  /// counterpart of `integrate_thermal_ensemble`. Runs `n_trajectories`
  /// thermal trajectories from the equilibrium cone, each against its own
  /// switching threshold drawn from `options.proposal`, with
  /// `stop_on_switch` early exit; scores each trajectory
  /// v_k = w_k * 1[no switch] with its likelihood-ratio weight, and reduces
  /// mean/variance/ESS in the fixed chunk order of the determinism
  /// contract — estimates are bit-identical for any thread count. Under the
  /// default proposal this is exactly brute-force MC (wer = failure
  /// fraction); the overlap-regime validation protocol in
  /// src/physics/README.md leans on that.
  [[nodiscard]] LlgWerEstimate estimate_wer(
      std::size_t n_trajectories, const Vec3& m0, double duration, double dt,
      double i_amps, mss::util::Rng& rng,
      const LlgWerOptions& options = {}) const;

 private:
  LlgParams params_;
};

/// Per-lane outcome of one `LlgSolver::integrate_thermal_batch` call.
/// Lanes excluded by the active mask report `switched = false`,
/// `switch_time = 0` and a default `m_final`.
struct LlgBatchRun {
  std::array<bool, LlgSolver::kLanes> switched{}; ///< lane crossed m_z = 0
  std::array<double, LlgSolver::kLanes> switch_time{}; ///< first crossing [s]
  std::array<Vec3, LlgSolver::kLanes> m_final{}; ///< m when the lane froze
  std::size_t steps_run = 0; ///< integration steps before the batch drained
};

} // namespace mss::physics
