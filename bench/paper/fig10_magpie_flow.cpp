// Fig. 10 reproduction: "Hybrid design exploration framework, MAGPIE flow".
//
// The figure is the flow diagram itself; this driver *executes* the flow
// end to end and reports the numbers each hand-off of the diagram passes on:
//
//   CMOS PDK + MTJ PDK
//     -> [2] SPICE simulation of the bit cell (netlist + stimulus + MDL)
//     -> [3] File Parser: extract cell-level parameters
//     -> [4] VAET-STT: memory-level latency/energy/area with variations
//     -> [5] gem5-like simulation + McPAT-like roll-up (MAGPIE)
//     -> total performance / energy / area report.
#include <string>

#include "cells/bitcell.hpp"
#include "magpie/scenario.hpp"
#include "nvsim/optimizer.hpp"
#include "paper.hpp"
#include "util/units.hpp"
#include "vaet/estimator.hpp"

namespace mss::paper {

Figure fig10_magpie_flow() {
  sweep::ResultTable t({"layer", "tool_stage", "quantity", "value"});
  const auto add = [&t](const char* layer, const char* stage,
                        const char* quantity, double value) {
    t.add_row({std::string(layer), std::string(stage), std::string(quantity),
               value});
  };

  // [1] Device level: the PDK.
  const auto pdk = core::Pdk::mss45();

  // [2] Circuit level: SPICE bit-cell simulation + MDL extraction.
  const cells::Bitcell cell(pdk);
  const auto wr =
      cell.characterize_write(core::WriteDirection::ToAntiparallel, 20e-9);
  const auto rd = cell.characterize_read(5e-9);
  add("circuit", "SPICE + MDL", "t_switch_ns", wr.t_switch / util::kNs);
  add("circuit", "SPICE + MDL", "write_energy_pJ", wr.energy / util::kPj);
  add("circuit", "SPICE + MDL", "read_margin_uA", rd.delta_i / util::kUa);

  // [3] File parser: update the cell configuration of VAET-STT.
  auto cell_params = pdk.extract_cell();
  cell_params.t_switch = wr.t_switch; // SPICE-extracted value wins

  // [4] Memory level: organisation exploration + variation-aware estimate.
  const nvsim::ArrayOrg org{1024, 1024, 256};
  const nvsim::ArrayModel array(pdk, org, cell_params);
  const auto est = array.estimate();
  vaet::VaetOptions vopt;
  vopt.mc_samples = 1000;
  const vaet::VaetStt vaet(pdk, org, vopt);
  util::Rng rng(0xF16A);
  const auto dist = vaet.monte_carlo(rng);
  const char* kVaet = "NVSim-style + VAET-STT";
  add("memory", kVaet, "read_latency_ns", est.read_latency / util::kNs);
  add("memory", kVaet, "read_latency_mu_ns",
      dist.read_latency.mean / util::kNs);
  add("memory", kVaet, "write_latency_ns", est.write_latency / util::kNs);
  add("memory", kVaet, "write_latency_mu_ns",
      dist.write_latency.mean / util::kNs);
  add("memory", kVaet, "area_mm2", est.area / util::kMm2);
  add("memory", kVaet, "leakage_mW", est.leakage_power / util::kMw);

  // [5] System level: gem5-like simulation + McPAT-like roll-up.
  auto kernel = magpie::kernel_by_name("bodytrack");
  kernel.instructions = 100'000;
  const auto sys = magpie::make_scenario(magpie::Scenario::FullL2Stt, pdk);
  const auto activity = magpie::simulate(sys, kernel);
  const auto energy = magpie::energy_rollup(sys, activity);
  const char* kMagpie = "gem5-like + McPAT-like";
  add("system", kMagpie, "exec_ms", activity.exec_time / 1e-3);
  add("system", kMagpie, "energy_mJ", energy.total() / util::kMj);
  add("system", kMagpie, "edp_Js", energy.edp());

  return {{{"", "bodytrack on " + sys.name, std::move(t)}},
          "[1] PDK: " + pdk.describe() +
              "\n[3] File parser: cell config updated (t_switch from SPICE)"
              "\nReport: total performance, total energy and total area "
              "produced by one seamless evaluation flow."};
}

} // namespace mss::paper
