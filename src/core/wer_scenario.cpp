#include "core/wer_scenario.hpp"

#include <cmath>
#include <stdexcept>

#include "sweep/experiment.hpp"
#include "sweep/param_space.hpp"

namespace mss::core {

WerScenario::WerScenario(WerScenarioConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.pulse_widths.empty() || cfg_.voltages.empty() ||
      cfg_.temperatures.empty()) {
    throw std::invalid_argument("WerScenario: every axis needs >= 1 value");
  }
  for (double t : cfg_.pulse_widths) {
    if (t <= 0.0) {
      throw std::invalid_argument("WerScenario: pulse widths must be > 0");
    }
  }
  if (cfg_.sigma_ic_rel <= 0.0) {
    throw std::invalid_argument("WerScenario: sigma_ic_rel must be > 0");
  }
}

std::vector<WerScenarioPoint> WerScenario::run() const {
  namespace sw = mss::sweep;
  sw::ParamSpace space;
  space.cross(sw::Axis::list("pulse", cfg_.pulse_widths))
      .cross(sw::Axis::list("voltage", cfg_.voltages))
      .cross(sw::Axis::list("temp", cfg_.temperatures));

  const bool mc = cfg_.trajectories > 0;
  const auto exp = sw::make_experiment(
      "wer-pulse-width", [&](const sw::Point& pt, util::Rng& rng) {
        WerScenarioPoint out;
        out.pulse_width = pt.number("pulse");
        out.voltage = pt.number("voltage");
        out.temperature = pt.number("temp");

        MtjParams dev = cfg_.device;
        dev.temperature = out.temperature;
        const MtjCompactModel model(dev);

        // The write voltage drives the junction from its initial state:
        // ToAntiparallel starts parallel (low R), ToParallel starts AP.
        const MtjState start = cfg_.direction == WriteDirection::ToAntiparallel
                                   ? MtjState::Parallel
                                   : MtjState::Antiparallel;
        out.i_write = out.voltage / model.resistance(start, out.voltage);

        constexpr double kLn10 = 2.302585092994046;
        out.log10_wer_behavioural =
            model.log_write_error_rate(cfg_.direction, out.i_write,
                                       out.pulse_width) /
            kLn10;
        out.log10_wer_analytic =
            model.log_write_error_rate_ic_spread(cfg_.direction, out.i_write,
                                                 out.pulse_width,
                                                 cfg_.sigma_ic_rel) /
            kLn10;

        if (mc) {
          // The estimator owns the parallelism: a point's trajectories
          // spread evenly over the pool, whereas points differ in cost by
          // ~4x (pulse width) and would leave threads idle at the end.
          WerEstimateOptions opt;
          opt.threads = cfg_.threads;
          opt.dt = cfg_.dt;
          // Sample the same threshold spread the analytic column assumes,
          // so the MC column is the overlay that validates (and, past the
          // overlap regime, sharpens) the ic-spread tail.
          opt.ic_sigma_rel = cfg_.sigma_ic_rel;
          out.mc = model.llgs_write_error_rate(cfg_.direction, out.i_write,
                                               out.pulse_width,
                                               cfg_.trajectories, rng, opt);
        }
        return out;
      });

  // Point streams depend only on (seed, point index), so running the
  // points serially under an MC overlay draws the same randomness.
  const sw::Runner runner(
      {.threads = mc ? 1 : cfg_.threads, .seed = cfg_.seed});
  return runner.run(space, exp);
}

sweep::ResultTable WerScenario::table() const {
  const auto points = run();
  sweep::ResultTable t({"pulse_s", "v_write", "temp_k", "i_write_a",
                        "log10_wer_behav", "log10_wer_analytic", "wer_mc",
                        "rel_err_mc", "ess_mc", "ic_shift_mc"});
  for (const auto& p : points) {
    t.add_row({p.pulse_width, p.voltage, p.temperature, p.i_write,
               p.log10_wer_behavioural, p.log10_wer_analytic, p.mc.wer,
               p.mc.rel_error, p.mc.ess, p.mc.proposal.shift});
  }
  return t;
}

} // namespace mss::core
