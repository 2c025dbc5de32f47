// Write-error rate vs pulse width — the rare-event reliability sweep.
//
// Question: how short can the write pulse get before a 1 Mb MSS array
// stops meeting a 1e-12 write-error budget? Brute-force Monte-Carlo tops
// out around 1e-4; this example runs the WerScenario family, which
// overlays three engines at every (pulse, voltage, temperature) point:
//  * the behavioural closed form (thermal incubation),
//  * the analytic switching-current-spread deep tail (math::special
//    erfcx/log_erfc path) — valid to 1e-15 and beyond,
//  * the importance-sampled LLGS estimator (a switching-threshold
//    proposal centred on the analytic failure band, with a defensive
//    mixture) with its relative-error bound — the trajectory-
//    level check on the closed forms, ~1e10x cheaper than naive MC at
//    equal error in the deep tail.
//
// The sweep table lands on stdout and in wer_pulse_width.csv / .json for
// re-plotting.
//
//   $ ./wer_pulse_width [trajectories-per-point]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/compact_model.hpp"
#include "core/wer_scenario.hpp"

int main(int argc, char** argv) {
  using namespace mss;

  // 0 trajectories = analytic-only sweep; pass e.g. 2000 for the IS-MC
  // overlay (a few seconds per point on one core).
  const std::size_t trajectories =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2000;

  std::printf("=== WER vs pulse width: analytic tails + IS-MC overlay "
              "===\n\n");

  core::WerScenarioConfig cfg;
  cfg.direction = core::WriteDirection::ToAntiparallel; // the hard write
  cfg.pulse_widths = {3e-9, 4e-9, 5e-9, 7e-9, 10e-9};
  cfg.voltages = {0.45};
  cfg.temperatures = {300.0, 350.0};
  cfg.sigma_ic_rel = 0.2; // device-to-device switching-current spread
  cfg.trajectories = trajectories;

  const core::WerScenario scenario(cfg);
  auto table = scenario.table();
  std::printf("%s\n", table.str(4).c_str());
  std::printf(
      "Each closed form owns a regime: the behavioural column models the\n"
      "thermal-incubation floor (dominant at short pulses), the analytic\n"
      "column the switching-current-spread tail (dominant once the floor\n"
      "decays); wer_mc samples the full trajectory physics and arbitrates\n"
      "between them (rel_err_mc / ess_mc gauge its resolution at each\n"
      "point).\n\n");

  // Where does each temperature corner cross the 1e-12 budget? The
  // analytic tail answers directly (the MC overlay validates it where the
  // two regimes overlap).
  const core::MtjCompactModel model(cfg.device);
  std::printf("pulse width for WER = 1e-12 at sigma_ic = %.2g:\n",
              cfg.sigma_ic_rel);
  for (double temp : cfg.temperatures) {
    core::MtjParams dev = cfg.device;
    dev.temperature = temp;
    const core::MtjCompactModel corner(dev);
    const double i =
        cfg.voltages[0] /
        corner.resistance(core::MtjState::Parallel, cfg.voltages[0]);
    const double t = corner.pulse_width_for_wer_ic_spread(
        cfg.direction, i, 1e-12, cfg.sigma_ic_rel);
    std::printf("  T = %3.0f K: %.2f ns (drive %.3g A)\n", temp, t * 1e9, i);
  }

  if (!table.write_csv("wer_pulse_width.csv") ||
      !table.write_json("wer_pulse_width.json")) {
    std::fprintf(stderr, "warning: could not write output files\n");
    return 1;
  }
  std::printf("\nwrote wer_pulse_width.csv / wer_pulse_width.json\n");
  return 0;
}
