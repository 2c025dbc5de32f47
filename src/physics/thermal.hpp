// Thermal-activation (Néel-Brown) switching statistics and the Sun
// precessional-regime model. Together these are the "behavioural"
// compact-modelling strategy of Jabeur'14: closed-form switching time /
// error-rate expressions, no trajectory integration.
//
// Regimes (I is the stack current, Ic0 the zero-temperature critical
// current):
//  * I < Ic0  — thermally activated: tau(I) = tau0 * exp(Delta * (1 - I/Ic0)),
//               P_switch(t) = 1 - exp(-t / tau(I)).  Also models retention
//               (I = 0) and read disturb (I = I_read).
//  * I > Ic0  — precessional: the initial thermal angle theta_0 sets the
//               incubation delay; with <theta0^2> = 1/(2 Delta),
//               P_switch(t) = exp(-(pi^2 Delta / 4) * exp(-2 t / tau_d(I))),
//               tau_d(I) = (1 + alpha^2) / (alpha * gamma * mu0 * Hk * (I/Ic0 - 1)).
#pragma once

namespace mss::physics {

/// Inputs of the analytic switching model.
struct SwitchingParams {
  double delta = 60.0;        ///< thermal stability factor
  double ic0 = 50e-6;         ///< critical current [A]
  double tau0 = 1e-9;         ///< attempt time [s] (1/f0, f0 ~ 1 GHz)
  double alpha = 0.015;       ///< Gilbert damping
  double hk_eff = 1.6e5;      ///< effective anisotropy field [A/m]
};

/// Néel-Brown mean dwell time under sub-critical current [s].
/// i_over_ic0 must be < 1; at or above 1 the activated picture is invalid.
[[nodiscard]] double neel_brown_tau(const SwitchingParams& p,
                                    double i_over_ic0);

/// Characteristic precessional time constant tau_d(I) for I > Ic0 [s].
[[nodiscard]] double precessional_tau(const SwitchingParams& p,
                                      double i_over_ic0);

/// Write error rate WER(t) = 1 - P_switch(t), valid in both regimes
/// (selects the regime from i_over_ic0). Returns values clamped to
/// [1e-300, 1].
[[nodiscard]] double write_error_rate(const SwitchingParams& p,
                                      double i_over_ic0, double t_pulse);

/// log(WER) — usable deep in the tail where WER underflows a double.
[[nodiscard]] double log_write_error_rate(const SwitchingParams& p,
                                          double i_over_ic0, double t_pulse);

/// Pulse width required to reach a target WER at the given overdrive [s].
[[nodiscard]] double pulse_width_for_wer(const SwitchingParams& p,
                                         double i_over_ic0, double target_wer);

/// log(WER) of a write pulse under a Gaussian switching-current spread —
/// the deep-tail closed form of the rare-event engine. Device-to-device
/// plus cycle-to-cycle variation spreads the critical current as
/// Ic = Ic0 (1 + sigma_rel z), z ~ N(0, 1). A device fails when the pulse
/// can neither switch it precessionally (I < Ic) nor thermally — the
/// residual barrier Delta (1 - I/Ic)^2 must survive ln(t/tau0) attempt
/// decades — giving the sharp-threshold boundary
///   WER(t) = Q(z_b) = erfc(z_b / sqrt 2) / 2,
///   z_b = (I/Ic0 / (1 - sqrt(ln(t/tau0) / Delta)) - 1) / sigma_rel.
/// The boundary is sharp in z but the activated escape smears it by a few
/// z-units at memory-grade Delta, so the closed form carries the tail
/// *slope* while the IS-MC estimator measures the offset (the overlap
/// validation protocol in src/physics/README.md). Evaluated through
/// math::log_erfc, so it stays accurate to WER ~ 1e-300 and beyond — the
/// regime brute-force MC can never reach.
[[nodiscard]] double log_write_error_rate_ic_spread(const SwitchingParams& p,
                                                    double i_over_ic0,
                                                    double t_pulse,
                                                    double sigma_rel);

/// exp of `log_write_error_rate_ic_spread`, clamped to [1e-300, 1].
[[nodiscard]] double write_error_rate_ic_spread(const SwitchingParams& p,
                                                double i_over_ic0,
                                                double t_pulse,
                                                double sigma_rel);

/// Closed-form inverse of the ic-spread tail: the pulse width that reaches
/// `target_wer` at the given overdrive,
///   t = tau0 * exp(Delta * (1 - i_over_ic0 / (1 + sigma_rel z*))^2),
///   z* = -inv_normal(target_wer),
/// exact (no iteration). Returns tau0 when the drive already exceeds the
/// z*-device's critical current (no thermal assist needed).
[[nodiscard]] double pulse_width_for_wer_ic_spread(const SwitchingParams& p,
                                                   double i_over_ic0,
                                                   double target_wer,
                                                   double sigma_rel);

/// Deterministic (median-angle) switching delay in the precessional regime:
/// t_sw = tau_d * ln(pi / (2 theta0)) with theta0 = sqrt(1/(2 Delta)).
/// This is the "nominal" switching time an NVSim-style estimator uses.
[[nodiscard]] double nominal_switching_time(const SwitchingParams& p,
                                            double i_over_ic0);

/// Retention time at zero current [s]: tau0 * exp(Delta).
[[nodiscard]] double retention_time(const SwitchingParams& p);

/// Probability that a read pulse (sub-critical, width t_read) accidentally
/// flips the cell — the read-disturb probability of Fig. 9.
[[nodiscard]] double read_disturb_probability(const SwitchingParams& p,
                                              double i_read_over_ic0,
                                              double t_read);

} // namespace mss::physics
