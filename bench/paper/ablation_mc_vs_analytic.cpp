// Ablation: Monte-Carlo vs analytic variation propagation in VAET-STT.
//
// The estimator implements both strategies (DESIGN.md Section 5): full
// Monte Carlo over sampled devices, and the Gauss-Hermite average over an
// effective overdrive distribution used by the margin solvers. This driver
// compares (a) the per-bit WER they predict at several pulse widths and
// (b) their runtime, quantifying the accuracy/cost trade-off.
// A third strategy — direct stochastic LLGS trajectory ensembles — is the
// ground truth both of the above approximate; the batched
// `integrate_thermal_ensemble` API makes it cheap enough to include here.
// Wall-clock times differ between runs, so they go to the note, never
// into a table.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>

#include "core/compact_model.hpp"
#include "paper.hpp"
#include "physics/llg.hpp"
#include "physics/thermal.hpp"
#include "util/units.hpp"
#include "vaet/estimator.hpp"

namespace mss::paper {

namespace {

/// Brute-force MC estimate of the per-bit WER at pulse width t.
double mc_per_bit_wer(const core::Pdk& pdk, double i_write, double t,
                      std::size_t n, util::Rng& rng) {
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const auto dev = pdk.sample_device(rng);
    const core::MtjCompactModel model(dev);
    const double drive = pdk.sample_drive_factor(rng);
    const double x =
        drive * i_write /
        model.critical_current(core::WriteDirection::ToAntiparallel);
    const auto sp =
        model.switching_params(core::WriteDirection::ToAntiparallel);
    if (x <= 1.001) {
      acc += 1.0;
    } else {
      acc += physics::write_error_rate(sp, x, t);
    }
  }
  return acc / double(n);
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Appends "%.1f" of `v` to a '/'-separated list.
void append_time(std::string& list, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, list.empty() ? "%.1f" : "/%.1f", v);
  list += buf;
}

} // namespace

Figure ablation_mc_vs_analytic() {
  using Clock = std::chrono::steady_clock;

  const auto pdk = core::Pdk::mss45();
  const vaet::VaetStt vaet(pdk, nvsim::ArrayOrg{1024, 1024, 256});
  const double i_write = vaet.array().cell().i_write;
  util::Rng rng(0xAB1A7E);

  constexpr std::size_t kMcSamples = 200000;
  sweep::ResultTable table(
      {"pulse_ns", "log10_wer_analytic", "log10_wer_mc"});
  std::string analytic_us, mc_ms;
  for (double tp_ns : {2.0, 3.0, 4.0, 6.0, 8.0}) {
    const double t = tp_ns * util::kNs;

    const auto a0 = Clock::now();
    const double lw_analytic = vaet.per_bit_log_wer(t) / std::log(10.0);
    const double a_ms = ms_since(a0);

    const auto m0 = Clock::now();
    const double wer_mc = mc_per_bit_wer(pdk, i_write, t, kMcSamples, rng);
    const double m_ms = ms_since(m0);

    // No MC failure at all: only a bound below the resolution.
    sweep::Value lw_mc = "< -" + std::to_string(int(std::log10(kMcSamples)));
    if (wer_mc > 0.0) lw_mc = std::log10(wer_mc);
    table.add_row({tp_ns, lw_analytic, lw_mc});
    append_time(analytic_us, 1e3 * a_ms);
    append_time(mc_ms, m_ms);
  }

  // --- physical cross-check: batched LLGS thermal-trajectory ensemble -----
  // The compact-model WER the two strategies above propagate is itself an
  // approximation of the stochastic macrospin dynamics. Run a trajectory
  // ensemble through the parallel batched API at one short pulse where the
  // error rate is resolvable with a few hundred trajectories.
  physics::LlgParams lp;
  lp.ms = pdk.mtj.ms;
  lp.alpha = pdk.mtj.alpha;
  lp.hk_eff = pdk.mtj.hk_eff();
  lp.volume = pdk.mtj.volume();
  lp.area = pdk.mtj.area();
  lp.t_fl = pdk.mtj.t_fl;
  lp.polarization = pdk.mtj.polarization;
  lp.temperature = pdk.mtj.temperature;
  const physics::LlgSolver solver(lp);

  const double t_pulse = 2.0 * util::kNs;
  constexpr std::size_t kTrajectories = 400;
  // P->AP write: start in the up (P) basin, current drives towards AP
  // (negative by the solver's polariser convention, as in llgs_write).
  const auto e0 = Clock::now();
  const auto ens = solver.integrate_thermal_ensemble(
      kTrajectories, {0.0, 0.0, 1.0}, t_pulse, 1e-12, -i_write, rng);
  std::string ensemble_ms;
  append_time(ensemble_ms, ms_since(e0));

  const core::MtjCompactModel nominal_model(pdk.mtj);
  sweep::ResultTable llgs({"pulse_ns", "trajectories", "p_no_switch",
                           "mean_t_switch_ns", "sigma_t_switch_ns",
                           "wer_compact"});
  llgs.add_row({t_pulse / util::kNs, std::int64_t(kTrajectories),
                1.0 - ens.p_switch(), ens.switch_time.mean() / util::kNs,
                ens.switch_time.stddev() / util::kNs,
                nominal_model.write_error_rate(
                    core::WriteDirection::ToAntiparallel, i_write, t_pulse)});

  return {{{"", "per-bit WER: analytic vs " + std::to_string(kMcSamples) +
                    "-sample Monte Carlo",
            std::move(table)},
           {"llgs", "LLGS ensemble cross-check (parallel batched API)",
            std::move(llgs)}},
          "Wall clock per pulse width: analytic " + analytic_us +
              " us, Monte Carlo " + mc_ms + " ms; LLGS ensemble " +
              ensemble_ms +
              " ms.\nWhere the MC estimate is resolvable (WER above "
              "~1/200000), the two strategies agree; only the analytic "
              "strategy reaches the deep-tail targets (1e-15..1e-18) of Figs. "
              "7-8, at orders of magnitude lower cost — the reason VAET-STT "
              "solves margins analytically and reserves MC for the Table-1 "
              "distribution statistics."};
}

} // namespace mss::paper
