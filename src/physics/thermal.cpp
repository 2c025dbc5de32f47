#include "physics/thermal.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/special.hpp"
#include "physics/constants.hpp"
#include "util/math.hpp"

namespace mss::physics {

namespace {
constexpr double kMinP = 1e-300;
}

double neel_brown_tau(const SwitchingParams& p, double i_over_ic0) {
  if (i_over_ic0 >= 1.0) {
    throw std::invalid_argument("neel_brown_tau: requires I < Ic0");
  }
  return p.tau0 * std::exp(p.delta * (1.0 - i_over_ic0));
}

double precessional_tau(const SwitchingParams& p, double i_over_ic0) {
  if (i_over_ic0 <= 1.0) {
    throw std::invalid_argument("precessional_tau: requires I > Ic0");
  }
  return (1.0 + p.alpha * p.alpha) /
         (p.alpha * kGamma * kMu0 * p.hk_eff * (i_over_ic0 - 1.0));
}

double log_write_error_rate(const SwitchingParams& p, double i_over_ic0,
                            double t_pulse) {
  if (t_pulse <= 0.0) return 0.0; // WER = 1
  if (i_over_ic0 > 1.0) {
    const double tau_d = precessional_tau(p, i_over_ic0);
    const double a = M_PI * M_PI * p.delta / 4.0;
    const double x = -a * std::exp(-2.0 * t_pulse / tau_d); // log P_switch
    // WER = 1 - exp(x); x <= 0.
    return mss::util::log1mexp(x);
  }
  // Activated regime: WER = exp(-t/tau).
  const double tau = neel_brown_tau(p, i_over_ic0);
  return -t_pulse / tau;
}

double write_error_rate(const SwitchingParams& p, double i_over_ic0,
                        double t_pulse) {
  const double lw = log_write_error_rate(p, i_over_ic0, t_pulse);
  return std::clamp(std::exp(lw), kMinP, 1.0);
}

double pulse_width_for_wer(const SwitchingParams& p, double i_over_ic0,
                           double target_wer) {
  if (target_wer <= 0.0 || target_wer >= 1.0) {
    throw std::invalid_argument("pulse_width_for_wer: target in (0,1)");
  }
  const double log_target = std::log(target_wer);
  if (i_over_ic0 > 1.0) {
    const double tau_d = precessional_tau(p, i_over_ic0);
    const double a = M_PI * M_PI * p.delta / 4.0;
    // Solve log(1 - exp(-a e^{-2t/tau})) = log_target.
    // For small targets: -a e^{-2t/tau} ~ target  =>  closed-form start.
    double t = 0.5 * tau_d * std::log(a / target_wer);
    // Newton refinement on f(t) = logWER(t) - log_target (monotone).
    for (int i = 0; i < 60; ++i) {
      const double f = log_write_error_rate(p, i_over_ic0, t) - log_target;
      // d logWER/dt = -(2/tau) * a e^{-2t/tau} * exp(x)/(1-exp(x)), with
      // x = -a e^{-2t/tau}; compute robustly.
      const double x = -a * std::exp(-2.0 * t / tau_d);
      const double dlog = (2.0 / tau_d) * x * std::exp(x - mss::util::log1mexp(x));
      if (dlog == 0.0) break;
      const double step = f / dlog;
      t -= step;
      if (std::abs(step) < 1e-15 * std::max(t, 1e-12)) break;
    }
    return std::max(t, 0.0);
  }
  // Activated regime: t = tau * ln(1/target).
  return neel_brown_tau(p, i_over_ic0) * (-log_target);
}

double log_write_error_rate_ic_spread(const SwitchingParams& p,
                                      double i_over_ic0, double t_pulse,
                                      double sigma_rel) {
  if (sigma_rel <= 0.0) {
    throw std::invalid_argument(
        "log_write_error_rate_ic_spread: sigma_rel must be > 0");
  }
  if (t_pulse <= 0.0) return 0.0; // WER = 1
  // A device fails when the pulse can neither switch it precessionally
  // (drive below its spread critical current) nor thermally: the residual
  // barrier Delta (1 - i/Ic)^2 must survive ln(t/tau0) attempt decades.
  // The sharp-threshold boundary in the z = (Ic/Ic0 - 1)/sigma deviate is
  // i/Ic(z) < 1 - sqrt(ln(t/tau0)/Delta), i.e. the quadratic-barrier
  // softening (the linear 1 - ln(t/tau0)/Delta form is only the
  // Delta -> infinity limit and underestimates the softening badly at
  // memory-grade Delta ~ 40-80).
  const double soft_sq = std::log(t_pulse / p.tau0) / p.delta;
  if (soft_sq >= 1.0) return 0.0; // even the nominal device loses data
  const double soften = soft_sq > 0.0 ? std::sqrt(soft_sq) : 0.0;
  const double z = (i_over_ic0 / (1.0 - soften) - 1.0) / sigma_rel;
  // WER = Q(z) = erfc(z / sqrt 2) / 2 in the log domain.
  return mss::math::log_erfc(z / std::sqrt(2.0)) - M_LN2;
}

double write_error_rate_ic_spread(const SwitchingParams& p, double i_over_ic0,
                                  double t_pulse, double sigma_rel) {
  const double lw =
      log_write_error_rate_ic_spread(p, i_over_ic0, t_pulse, sigma_rel);
  return std::clamp(std::exp(lw), kMinP, 1.0);
}

double pulse_width_for_wer_ic_spread(const SwitchingParams& p,
                                     double i_over_ic0, double target_wer,
                                     double sigma_rel) {
  if (target_wer <= 0.0 || target_wer >= 1.0) {
    throw std::invalid_argument(
        "pulse_width_for_wer_ic_spread: target in (0,1)");
  }
  if (sigma_rel <= 0.0) {
    throw std::invalid_argument(
        "pulse_width_for_wer_ic_spread: sigma_rel must be > 0");
  }
  // Q(z*) = target  <=>  z* = -inv_normal(target); invert the
  // quadratic-barrier boundary z(t) = (i / (1 - sqrt(ln(t/tau0)/Delta))
  // - 1) / sigma for t: soften = 1 - i / (1 + sigma z*), t = tau0
  // exp(Delta soften^2). When the drive already exceeds the z*-device's
  // critical current (soften <= 0) one attempt time suffices.
  const double z_star = -mss::math::inv_normal(target_wer);
  const double soften = 1.0 - i_over_ic0 / (1.0 + sigma_rel * z_star);
  if (soften <= 0.0) return p.tau0;
  return p.tau0 * std::exp(p.delta * soften * soften);
}

double nominal_switching_time(const SwitchingParams& p, double i_over_ic0) {
  if (i_over_ic0 <= 1.0) {
    // Sub-critical: report the median activated dwell time.
    return neel_brown_tau(p, i_over_ic0) * M_LN2;
  }
  const double tau_d = precessional_tau(p, i_over_ic0);
  const double theta0 = std::sqrt(1.0 / (2.0 * p.delta));
  return tau_d * std::log(M_PI / (2.0 * theta0));
}

double retention_time(const SwitchingParams& p) {
  return p.tau0 * std::exp(p.delta);
}

double read_disturb_probability(const SwitchingParams& p,
                                double i_read_over_ic0, double t_read) {
  if (i_read_over_ic0 >= 1.0) {
    throw std::invalid_argument("read_disturb_probability: read current must be sub-critical");
  }
  const double tau = neel_brown_tau(p, i_read_over_ic0);
  return std::clamp(-std::expm1(-t_read / tau), 0.0, 1.0);
}

} // namespace mss::physics
