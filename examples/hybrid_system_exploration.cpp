// Hybrid-memory system exploration with MAGPIE — the Section IV use case.
//
// Question: should an IoT gateway SoC (big.LITTLE) move its L2 caches to
// MSS STT-MRAM? The example runs a custom kernel mix through all four
// scenarios — one kernel x scenario crossed sweep, evaluated in parallel
// by sweep::Runner — and prints the recommendation with the supporting
// numbers — exactly the "script-oriented" design-space exploration the
// paper describes MAGPIE providing.
//
//   $ ./hybrid_system_exploration
#include <cstdio>
#include <string>
#include <vector>

#include "magpie/scenario.hpp"
#include "sweep/result_table.hpp"

int main() {
  using namespace mss;

  std::printf("=== MAGPIE hybrid-memory exploration: IoT gateway kernel "
              "mix ===\n\n");

  const auto pdk = core::Pdk::mss45();
  // Gateway mix: sensing preprocessing (streaming), local inference
  // (capacity hungry), video encode (write heavy).
  std::vector<magpie::KernelParams> mix;
  for (const char* name : {"streamcluster", "bodytrack", "x264"}) {
    mix.push_back(magpie::kernel_by_name(name));
  }

  // The whole mix is one crossed sweep: results are kernel-major with the
  // four scenarios in presentation order.
  const auto runs = magpie::run_scenario_sweep(mix, pdk);
  const auto scenarios = magpie::all_scenarios();

  struct Tally {
    double time = 0.0;
    double energy = 0.0;
  };
  std::vector<Tally> tally(scenarios.size());

  sweep::ResultTable per_kernel(
      {"kernel", "scenario", "exec_ms", "energy_mJ", "edp_ratio_vs_sram"});
  for (std::size_t k = 0; k < mix.size(); ++k) {
    const auto* base = &runs[k * scenarios.size()];
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const auto& run = base[i];
      tally[i].time += run.activity.exec_time;
      tally[i].energy += run.energy.total();
      const auto m = magpie::normalize(base[0], run);
      per_kernel.add_row({mix[k].name,
                          std::string(magpie::to_string(run.scenario)),
                          run.activity.exec_time / 1e-3,
                          run.energy.total() / 1e-3, m.edp_ratio});
    }
  }
  std::printf("%s\n", per_kernel.str(4).c_str());

  std::printf("Mix totals:\n");
  sweep::ResultTable totals({"scenario", "time_ms", "energy_mJ", "edp_uJs",
                             "edp_pct_of_full_sram"});
  const double ref_edp = tally[0].time * tally[0].energy;
  std::size_t best = 0;
  double best_edp = 1e300;
  for (std::size_t i = 0; i < tally.size(); ++i) {
    const double edp = tally[i].time * tally[i].energy;
    if (edp < best_edp) {
      best_edp = edp;
      best = i;
    }
    totals.add_row({std::string(magpie::to_string(scenarios[i])),
                    tally[i].time / 1e-3, tally[i].energy / 1e-3, edp / 1e-9,
                    100.0 * edp / ref_edp});
  }
  std::printf("%s\n", totals.str(4).c_str());
  std::printf("Recommendation for this mix: %s (EDP %.1f%% of the "
              "Full-SRAM reference).\n",
              magpie::to_string(scenarios[best]),
              100.0 * best_edp / ref_edp);
  std::printf("The decision flips with the workload — rerun with your own "
              "mix; that one-command loop is what MAGPIE is for.\n");
  return 0;
}
