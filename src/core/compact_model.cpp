#include "core/compact_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "physics/constants.hpp"
#include "util/parallel.hpp"

namespace mss::core {

MtjCompactModel::MtjCompactModel(MtjParams params) : params_(params) {
  params_.validate();
}

double MtjCompactModel::tmr(double v_bias) const {
  const double r = v_bias / params_.v_h;
  return params_.tmr0 / (1.0 + r * r);
}

double MtjCompactModel::resistance(MtjState state, double v_bias) const {
  const double rp = params_.r_p();
  if (state == MtjState::Parallel) return rp;
  return rp * (1.0 + tmr(v_bias));
}

double MtjCompactModel::conductance_at_angle(double cos_theta,
                                             double v_bias) const {
  if (cos_theta < -1.0 || cos_theta > 1.0) {
    throw std::invalid_argument("conductance_at_angle: |cos(theta)| > 1");
  }
  const double t = tmr(v_bias);
  const double chi = t / (2.0 + t);
  const double g_p = 1.0 / params_.r_p();
  // G_P = G_T (1 + chi)  =>  G_T = G_P / (1 + chi).
  const double g_t = g_p / (1.0 + chi);
  return g_t * (1.0 + chi * cos_theta);
}

double MtjCompactModel::read_current(MtjState state, double v_read) const {
  return v_read / resistance(state, v_read);
}

double MtjCompactModel::critical_current(WriteDirection dir) const {
  return dir == WriteDirection::ToAntiparallel ? params_.ic0_p_to_ap()
                                               : params_.ic0();
}

physics::SwitchingParams MtjCompactModel::switching_params(
    WriteDirection dir) const {
  physics::SwitchingParams sp;
  sp.delta = params_.delta();
  sp.ic0 = critical_current(dir);
  sp.tau0 = params_.tau0;
  sp.alpha = params_.alpha;
  sp.hk_eff = params_.hk_eff();
  return sp;
}

double MtjCompactModel::switching_time(WriteDirection dir,
                                       double i_write) const {
  const auto sp = switching_params(dir);
  return physics::nominal_switching_time(sp, i_write / sp.ic0);
}

double MtjCompactModel::write_error_rate(WriteDirection dir, double i_write,
                                         double t_pulse) const {
  const auto sp = switching_params(dir);
  return physics::write_error_rate(sp, i_write / sp.ic0, t_pulse);
}

double MtjCompactModel::log_write_error_rate(WriteDirection dir,
                                             double i_write,
                                             double t_pulse) const {
  const auto sp = switching_params(dir);
  return physics::log_write_error_rate(sp, i_write / sp.ic0, t_pulse);
}

double MtjCompactModel::pulse_width_for_wer(WriteDirection dir, double i_write,
                                            double target_wer) const {
  const auto sp = switching_params(dir);
  return physics::pulse_width_for_wer(sp, i_write / sp.ic0, target_wer);
}

double MtjCompactModel::log_write_error_rate_ic_spread(
    WriteDirection dir, double i_write, double t_pulse,
    double sigma_rel) const {
  const auto sp = switching_params(dir);
  return physics::log_write_error_rate_ic_spread(sp, i_write / sp.ic0, t_pulse,
                                                 sigma_rel);
}

double MtjCompactModel::write_error_rate_ic_spread(WriteDirection dir,
                                                   double i_write,
                                                   double t_pulse,
                                                   double sigma_rel) const {
  const auto sp = switching_params(dir);
  return physics::write_error_rate_ic_spread(sp, i_write / sp.ic0, t_pulse,
                                             sigma_rel);
}

double MtjCompactModel::pulse_width_for_wer_ic_spread(WriteDirection dir,
                                                      double i_write,
                                                      double target_wer,
                                                      double sigma_rel) const {
  const auto sp = switching_params(dir);
  return physics::pulse_width_for_wer_ic_spread(sp, i_write / sp.ic0,
                                                target_wer, sigma_rel);
}

double MtjCompactModel::read_disturb_probability(double i_read,
                                                 double t_read) const {
  // Worst case: the read current destabilises the state it flows against;
  // the easier (AP->P) critical current gives the higher disturb rate.
  const auto sp = switching_params(WriteDirection::ToParallel);
  return physics::read_disturb_probability(sp, i_read / sp.ic0, t_read);
}

double MtjCompactModel::retention_time() const {
  const auto sp = switching_params(WriteDirection::ToParallel);
  return physics::retention_time(sp);
}

double MtjCompactModel::write_energy(WriteDirection dir, double i_write,
                                     double t_pulse) const {
  // The junction spends part of the pulse in the initial state and the rest
  // in the final state; approximate with the mean of the two resistances up
  // to the median switching time, final resistance after.
  const double t_sw = std::min(switching_time(dir, i_write), t_pulse);
  const double r_init = dir == WriteDirection::ToAntiparallel
                            ? params_.r_p()
                            : params_.r_ap();
  const double r_final = dir == WriteDirection::ToAntiparallel
                             ? params_.r_ap()
                             : params_.r_p();
  const double i2 = i_write * i_write;
  return i2 * (0.5 * (r_init + r_final) * t_sw + r_final * (t_pulse - t_sw));
}

physics::LlgParams MtjCompactModel::llg_params() const {
  physics::LlgParams lp;
  lp.ms = params_.ms;
  lp.alpha = params_.alpha;
  lp.hk_eff = params_.hk_eff();
  lp.volume = params_.volume();
  lp.area = params_.area();
  lp.t_fl = params_.t_fl;
  lp.polarization = params_.polarization;
  lp.temperature = params_.temperature;
  lp.polarizer = {0.0, 0.0, 1.0};
  return lp;
}

MtjCompactModel::LlgsDrive MtjCompactModel::llgs_drive(WriteDirection dir,
                                                       double i_write) {
  // ToParallel drives m towards the polariser (+z); start in the opposite
  // basin. The sign convention of the LLGS torque handles the direction.
  return {/*start_up=*/dir == WriteDirection::ToAntiparallel,
          /*current=*/dir == WriteDirection::ToAntiparallel
              ? -std::abs(i_write)
              : std::abs(i_write)};
}

WriteOutcome MtjCompactModel::llgs_write(WriteDirection dir, double i_write,
                                         double t_pulse, mss::util::Rng& rng,
                                         double dt) const {
  const auto [start_up, current] = llgs_drive(dir, i_write);

  physics::LlgSolver solver(llg_params());
  const physics::Vec3 m0 = solver.thermal_initial_state(start_up, rng);
  const auto run = solver.integrate_thermal(m0, t_pulse, dt, current, rng, 64);

  WriteOutcome out;
  out.switched = run.switched;
  out.switch_time = run.switch_time;
  out.energy = write_energy(dir, std::abs(i_write), t_pulse);
  return out;
}

double MtjCompactModel::llgs_switch_probability(WriteDirection dir,
                                                double i_write, double t_pulse,
                                                std::size_t n,
                                                mss::util::Rng& rng,
                                                std::size_t threads) const {
  if (n == 0) throw std::invalid_argument("llgs_switch_probability: n == 0");
  // The n transients are exactly a thermal ensemble from the start basin:
  // run them through the batched SIMD kernel. Per-trajectory jump
  // substreams make the probability (and the post-call state of `rng`)
  // bit-identical for any thread count; trajectories freeze at their first
  // crossing (stop_on_switch) since only the switch outcome feeds the
  // statistic.
  const auto [start_up, current] = llgs_drive(dir, i_write);
  const physics::LlgSolver solver(llg_params());
  physics::LlgEnsembleOptions opt;
  opt.threads = threads;
  opt.stop_on_switch = true;
  const physics::Vec3 m0{0.0, 0.0, start_up ? 1.0 : -1.0};
  const auto ens = solver.integrate_thermal_ensemble(
      n, m0, t_pulse, /*dt=*/1e-12, current, rng, opt);
  return ens.p_switch();
}

WerEstimate MtjCompactModel::llgs_write_error_rate(
    WriteDirection dir, double i_write, double t_pulse, std::size_t n,
    mss::util::Rng& rng, const WerEstimateOptions& options) const {
  if (n == 0) throw std::invalid_argument("llgs_write_error_rate: n == 0");
  const auto [start_up, current] = llgs_drive(dir, i_write);
  const physics::LlgSolver solver(llg_params());

  physics::LlgWerOptions wopt;
  wopt.threads = options.threads;
  wopt.ic_sigma_rel = options.ic_sigma_rel;
  if (options.proposal) {
    wopt.proposal = *options.proposal;
  } else if (options.ic_sigma_rel > 0.0) {
    // Proposal from the analytic transition band. Failures turn on where
    // the residual barrier Delta (1 - i/Ic(z))^2 crosses the ln(t/tau0)
    // attempt budget, but the turn-on is smeared over several z-units (the
    // barrier grows only quadratically past the boundary), so the proposal
    // is centred on the band [z(L - 2), z(L + 3)] (L = ln(t/tau0), z(B) =
    // the deviate whose residual barrier is B) and widened to cover it.
    // The analytic band is approximate, but a proposal only needs to
    // blanket the dominant failure region — the likelihood ratios absorb
    // the rest.
    const auto sp = switching_params(dir);
    // Attempt time for the band: the LLGS trajectories attempt escape on
    // the damping-relaxation scale (1 + alpha^2) / (alpha gamma mu0 Hk),
    // which at high damping is much shorter than the conventional 1 ns
    // tau0 used by the closed forms — the measured failure boundary sits
    // correspondingly deeper than the tau0-based analytic one.
    const double tau_relax = (1.0 + sp.alpha * sp.alpha) /
                             (sp.alpha * physics::kGamma * physics::kMu0 *
                              sp.hk_eff);
    const double ln_t = std::log(t_pulse / std::min(sp.tau0, tau_relax));
    const double i_over = std::abs(i_write) / sp.ic0;
    const auto z_at_barrier = [&](double barrier) {
      const double frac = std::clamp(barrier / sp.delta, 0.0, 0.96);
      return (i_over / (1.0 - std::sqrt(frac)) - 1.0) / options.ic_sigma_rel;
    };
    const double z_lo = z_at_barrier(std::max(ln_t - 2.0, 0.0));
    const double z_hi = z_at_barrier(std::max(ln_t + 3.0, 1.0));
    auto& q = wopt.proposal;
    q.shift = std::clamp(0.5 * (z_lo + z_hi), 0.0, 38.0);
    q.sd = std::max(1.0, (z_hi - z_lo) / 3.0);
    // A 20% defensive floor under any shifted proposal; an unshifted one
    // keeps the exact-zero weights of brute force.
    q.defensive = q.shift > 0.0 ? 0.2 : 0.0;
  }

  const physics::Vec3 m0{0.0, 0.0, start_up ? 1.0 : -1.0};
  return solver.estimate_wer(n, m0, t_pulse, options.dt, current, rng, wopt);
}

} // namespace mss::core
