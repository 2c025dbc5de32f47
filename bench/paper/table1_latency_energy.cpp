// Table 1 reproduction: "Overall latency and energy values for 45 nm and
// 65 nm technology nodes for a memory array of 1024x1024".
//
// For each node: the NVSim-style nominal value next to the
// variation-aware mean (mu) and standard deviation (sigma) from the
// VAET-STT Monte-Carlo analysis — the exact quadruple-per-row structure of
// the paper's Table 1. The node axis is an Experiment through
// sweep::Runner (serial outside, the MC sharded across the pool inside).
//
// Paper values for comparison (45 nm / 65 nm):
//   Write Latency (ns):  nominal 4.9 / 4.4,  mu 14.7 / 12.1,  sigma 1.82 / 1.32
//   Write Energy  (pJ):  nominal 159 / 272.8, mu 425 / 512.2, sigma 3.73 / 2.79
//   Read  Latency (ns):  nominal 1.2 / 1.22, mu 1.7 / 1.5,   sigma 0.08 / 0.05
//   Read  Energy  (pJ):  nominal 3.4 / 4.8,  mu 4.8 / 5.7,   sigma 0.002 / 0.001
#include <string>

#include "paper.hpp"
#include "sweep/experiment.hpp"
#include "util/units.hpp"
#include "vaet/estimator.hpp"

namespace mss::paper {

Figure table1_latency_energy() {
  using util::kNs;
  using util::kPj;

  const auto space = sweep::ParamSpace().cross(
      sweep::Axis::list("node", {std::string("45nm"), "65nm"}));

  const auto exp = sweep::make_experiment(
      "table1-mc", [](const sweep::Point& p, util::Rng& rng) {
        const auto node = core::node_from_string(p.str("node"));
        vaet::VaetOptions opt;
        opt.mc_samples = 4000;
        const vaet::VaetStt vaet(core::Pdk::for_node(node),
                                 nvsim::ArrayOrg{1024, 1024, 256}, opt);
        return vaet.monte_carlo(rng);
      });

  // Serial outer sweep (2 nodes); the Monte Carlo itself shards across
  // the pool inside each evaluation.
  sweep::RunOptions ropt;
  ropt.threads = 1;
  ropt.seed = 0xDA7E2018;
  const auto results = sweep::Runner(ropt).run(space, exp);

  sweep::ResultTable table(
      {"metric", "node", "nominal", "mu", "sigma", "paper_nom_mu_sigma"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto p = space.at(i);
    const bool n45 = p.str("node") == "45nm";
    const auto row = [&](const char* metric,
                         const vaet::DistributionSummary& d, double unit,
                         const char* paper45, const char* paper65) {
      table.add_row({std::string(metric), p.str("node"), d.nominal / unit,
                     d.mean / unit, d.sigma / unit,
                     std::string(n45 ? paper45 : paper65)});
    };
    row("Write Latency (ns)", results[i].write_latency, kNs, "4.9/14.7/1.82",
        "4.4/12.1/1.32");
    row("Write Energy (pJ)", results[i].write_energy, kPj, "159.0/425.0/3.73",
        "272.8/512.2/2.79");
    row("Read Latency (ns)", results[i].read_latency, kNs, "1.2/1.7/0.08",
        "1.22/1.5/0.05");
    row("Read Energy (pJ)", results[i].read_energy, kPj, "3.4/4.8/0.002",
        "4.8/5.7/0.001");
  }

  return {{{"",
            "nominal = variation-unaware NVSim-style estimate; mu/sigma from "
            "the VAET-STT Monte Carlo",
            std::move(table)}},
          "Shape checks (paper): mu >> nominal for latencies; sigma/mu "
          "larger at 45nm; energies lower at 45nm."};
}

} // namespace mss::paper
