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
  /// Freeze a lane the step it first crosses m_z = 0: its result (switch
  /// time, m at the crossing) is recorded and the lane idles — it draws no
  /// further thermal field — until the whole batch drains, at which point
  /// the batch exits early. Cheaper when only switching statistics matter,
  /// but `m_final`/`mean_mz_final` then reflect the crossing instead of the
  /// end of the pulse, so the default keeps the full-duration integration.
  /// Deterministic per trajectory, hence invariant to the thread count.
  bool stop_on_switch = false;
};

/// Options of `LlgSolver::estimate_wer`.
struct LlgWerOptions {
  /// Worker threads: same contract as `LlgEnsembleOptions::threads`.
  std::size_t threads = 0;
  /// Importance-sampling tilt nu >= 1 of the initial thermal-cone draw:
  /// trajectories start from the narrowed cone N(0, s^2/nu) per transverse
  /// component instead of the equilibrium N(0, s^2), which over-samples the
  /// small-angle starts that dominate write failure; each trajectory
  /// carries the exact likelihood-ratio weight. nu = 1 is plain MC
  /// (weights identically 1). 0 (the default) derives nu from `p_hint`.
  double tilt = 0.0;
  /// Rough prior estimate of the WER (e.g. the closed-form behavioural
  /// value) used to auto-pick the tilt as nu = ln 2 / (-ln(1 - p_hint)) —
  /// the tilt that makes a *failure* an even-odds event under the
  /// small-angle cone model. The derived nu is clamped to [1, 16]: the
  /// in-pulse thermal noise re-randomises the cone angle within a few
  /// damping times, so P(fail | theta_0 ~ 0) floors near the untilted rate
  /// and cone tilts beyond ~the overdrive only spend proposal mass where
  /// the noise rescues the trajectory anyway (see src/physics/README.md).
  /// Deep tails are instead reached through `ic_sigma_rel`/`ic_shift`.
  /// Ignored when `tilt` > 0; out-of-range values (<= 0 or >= 1) fall back
  /// to nu = 1.
  double p_hint = 0.0;
  /// Relative 1-sigma spread of the per-trajectory switching threshold
  /// (critical current): each trajectory k draws z_k ~ N(ic_shift, 1) from
  /// its own substream (first draw, before the cone draws) and runs with
  /// its spin-torque prefactor scaled by 1 / (1 + ic_sigma_rel * z_k) —
  /// i.e. against a device whose critical current is Ic0 (1 + sigma z_k).
  /// 0 (the default) disables the draw entirely (pure-thermal estimator,
  /// stream layout unchanged).
  double ic_sigma_rel = 0.0;
  /// Mean shift of the threshold deviate under importance sampling: the
  /// proposal is z ~ N(ic_shift, 1) against the N(0, 1) target, with the
  /// exact likelihood ratio exp(-ic_shift z + ic_shift^2 / 2) folded into
  /// the lane weight. This 1-D exponential tilt is the deep-tail
  /// workhorse: shifting to the failure boundary z* (where Ic(z*) equals
  /// the drive) keeps the tilted failure probability O(1) at any tail
  /// depth, with no weight degeneracy because only one draw is tilted.
  /// Requires `ic_sigma_rel` > 0; 0 means untilted threshold sampling.
  double ic_shift = 0.0;
  /// Standard deviation tau of the threshold proposal N(ic_shift, tau^2).
  /// The activated-escape transition from "switches anyway" to "fails for
  /// sure" is smeared over several z-units at memory-grade Delta (the
  /// residual barrier grows only quadratically past the boundary), and a
  /// unit-width proposal parked on the sharp boundary leaves the heavy-
  /// weight low-z failures uncovered — widening the proposal to span the
  /// transition is what keeps the ESS proportional to the failure count.
  /// 0 (the default) means 1 (plain mean-shift tilt); values >= 1 only.
  double ic_proposal_sd = 0.0;
  /// Defensive-mixture fraction lambda (Hesterberg): with probability
  /// lambda the threshold deviate is drawn from the untilted N(0, 1)
  /// target instead of the shifted proposal, and every weight uses the
  /// mixture density lambda phi(z) + (1 - lambda) q(z). Any z with
  /// non-negligible target mass then gets weight <= 1 / lambda, so a
  /// mis-centred proposal degrades the error bar instead of silently
  /// dropping probability mass (e.g. near-nominal incubation failures
  /// that an aggressively shifted proposal never visits). < 0 (default)
  /// = auto: 0.2 when ic_shift > 0, else 0. Explicit values must lie in
  /// [0, 1) and require ic_sigma_rel > 0. lambda = 0 keeps the pure
  /// shifted proposal (and the exact zero weights of the shift = 0,
  /// sd = 1 brute-force path).
  double ic_defensive = -1.0;
};

/// Importance-sampled write-error-rate estimate returned by
/// `LlgSolver::estimate_wer`. All statistics obey the determinism
/// contract: bit-identical for any thread count.
struct LlgWerEstimate {
  double wer = 0.0;       ///< estimated P(no switch within the pulse)
  double variance = 0.0;  ///< variance of the estimate (of the mean)
  double rel_error = 0.0; ///< sqrt(variance) / wer (0 when wer == 0)
  double ess = 0.0; ///< effective sample size (sum w)^2 / sum w^2 of failures
  double tilt = 1.0;      ///< cone tilt nu actually used
  double ic_shift = 0.0;  ///< threshold-deviate mean shift actually used
  double ic_defensive = 0.0; ///< defensive-mixture fraction actually used
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
  /// transverse components from `lane_rngs[l]` in the scalar order — so at
  /// `tilt_nu == 1` lane l's start is bit-identical to the scalar
  /// `thermal_initial_state(up, lane_rngs[l])` regardless of the other
  /// lanes. With `tilt_nu > 1` the draw comes from the importance
  /// proposal N(0, s^2/nu) per component and, when `log_weight` is
  /// non-null, `(*log_weight)[l]` receives the exact log likelihood ratio
  /// log[ target(theta) / proposal(theta) ] of the drawn start.
  /// Inactive lanes draw nothing and are left untouched.
  void thermal_initial_state_batch(
      bool up, mss::util::Rng* lane_rngs, std::uint32_t active_mask,
      std::array<Vec3, kLanes>& starts, double tilt_nu = 1.0,
      std::array<double, kLanes>* log_weight = nullptr) const;

  /// Importance-sampled write-error-rate estimator: the rare-event
  /// counterpart of `integrate_thermal_ensemble`. Runs `n_trajectories`
  /// thermal trajectories from the tilted initial cone (see
  /// `LlgWerOptions::tilt`) with `stop_on_switch` early exit, scores each
  /// trajectory v_k = w_k * 1[no switch] with its likelihood-ratio weight,
  /// and reduces mean/variance/ESS in the fixed chunk order of the
  /// determinism contract — estimates are bit-identical for any thread
  /// count. At tilt nu = 1 this is exactly brute-force MC (wer =
  /// failure fraction); the overlap-regime validation protocol in
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
