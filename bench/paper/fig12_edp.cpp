// Fig. 12 reproduction: "Energy Delay Product merit" — for each Parsec-like
// kernel, execution time, energy, and EDP of the three STT-MRAM scenarios
// normalised to the Full-SRAM reference (45 nm, as in the paper).
//
// The kernel x scenario grid is one crossed sweep evaluated in parallel
// through sweep::Runner; the figure is the normalized ResultTable, and the
// paper's headline claims are read straight off it.
#include <string>

#include "magpie/scenario.hpp"
#include "paper.hpp"

namespace mss::paper {

Figure fig12_edp() {
  const auto pdk = core::Pdk::mss45();
  const auto runs =
      magpie::run_scenario_sweep(magpie::parsec_kernels(), pdk);
  auto table = magpie::normalized_table(runs);

  // Best LITTLE-L2-STT execution-time reduction and worst energy ratio.
  std::size_t best_time = table.rows();
  double best_ratio = 1.0; // only a reduction counts
  std::size_t worst_energy = 0;
  for (std::size_t r = 0; r < table.rows(); ++r) {
    if (std::get<std::string>(table.at(r, "scenario")) ==
            "LITTLE-L2-STT-MRAM" &&
        table.number(r, "time_ratio") < best_ratio) {
      best_ratio = table.number(r, "time_ratio");
      best_time = r;
    }
    if (table.number(r, "energy_ratio") >
        table.number(worst_energy, "energy_ratio")) {
      worst_energy = r;
    }
  }
  sweep::ResultTable headline({"headline", "kernel", "value"});
  if (best_time != table.rows()) {
    headline.add_row({std::string("best_little_l2_stt_time_ratio"),
                      table.at(best_time, "kernel"),
                      table.at(best_time, "time_ratio")});
  }
  headline.add_row({std::string("worst_energy_ratio"),
                    table.at(worst_energy, "kernel"),
                    table.at(worst_energy, "energy_ratio")});

  return {{{"", "", std::move(table)},
           {"headline", "headline numbers", std::move(headline)}},
          "Headlines vs paper: LITTLE-L2-STT \"reduces the execution time, "
          "up to 50%\"; energy \"improved in all scenarios, at least up to "
          "17%\".\nShape checks (paper): STT in L2 can increase execution "
          "time (write latency) except on the LITTLE cluster where the "
          "iso-area capacity gain wins; energy improves everywhere; the EDP "
          "shows the time penalty is compensated by the energy savings."};
}

} // namespace mss::paper
