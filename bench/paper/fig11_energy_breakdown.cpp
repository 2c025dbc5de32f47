// Fig. 11 reproduction: "Energy breakdown by component when executing
// bodytrack kernel on big.LITTLE architecture".
//
// Four scenarios: Full-SRAM (reference), LITTLE-L2-STT-MRAM,
// big-L2-STT-MRAM, Full-L2-STT-MRAM — one scenario sweep through
// sweep::Runner. For each: the per-component energies (cores, L1, L2,
// interconnect, DRAM+MC) with a TOTAL row, and each STT scenario's total
// against the Full-SRAM reference.
#include <string>
#include <vector>

#include "magpie/scenario.hpp"
#include "paper.hpp"

namespace mss::paper {

Figure fig11_energy_breakdown() {
  const auto pdk = core::Pdk::mss45();
  const auto runs = magpie::run_scenario_sweep(
      {magpie::kernel_by_name("bodytrack")}, pdk);

  // Component rows (fixed order across scenarios).
  const std::vector<std::string> comps = {
      "LITTLE cores", "LITTLE L1",          "LITTLE L2",
      "LITTLE interconnect", "big cores",   "big L1",
      "big L2",       "big interconnect",   "DRAM + MC"};

  sweep::ResultTable table({"component", "full_sram_uJ", "little_l2_stt_uJ",
                            "big_l2_stt_uJ", "full_l2_stt_uJ"});
  for (const auto& comp : comps) {
    std::vector<sweep::Value> row{comp};
    for (const auto& run : runs) {
      // L2 component names embed the technology; match by prefix.
      double value = 0.0;
      for (const auto& c : run.energy.components) {
        if (c.name.rfind(comp, 0) == 0) value += c.total();
      }
      row.emplace_back(value / 1e-6);
    }
    table.add_row(row);
  }
  std::vector<sweep::Value> totals{std::string("TOTAL")};
  for (const auto& run : runs) totals.emplace_back(run.energy.total() / 1e-6);
  table.add_row(totals);

  sweep::ResultTable vs_sram({"scenario", "energy_pct_of_full_sram"});
  const double ref = runs[0].energy.total();
  for (std::size_t i = 1; i < runs.size(); ++i) {
    vs_sram.add_row({std::string(magpie::to_string(runs[i].scenario)),
                     100.0 * runs[i].energy.total() / ref});
  }

  return {{{"", "", std::move(table)},
           {"vs_sram", "total energy vs Full-SRAM", std::move(vs_sram)}},
          "Shape check (paper): \"the overall energy consumption is improved "
          "in all scenarios, at least up to 17%\" — every STT scenario must "
          "land below 100%, with the L2 leakage elimination the dominant "
          "effect."};
}

} // namespace mss::paper
