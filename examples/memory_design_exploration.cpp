// Memory design exploration with VAET-STT — the Section III use case.
//
// Task: design a 4 Mb STT-MRAM scratchpad at 45 nm with a 1e-12 access
// error budget. The example walks the full variation-aware flow:
//   1. explore array organisations (NVSim role) under constraints,
//   2. quantify the variation-aware latency distributions (Table-1 style),
//   3. pick the write timing margin for the WER target (Fig. 7 style),
//   4. decide between raw margining and ECC (Fig. 8 style),
//   5. check the read-disturb exposure of the chosen read period (Fig. 9).
//
//   $ ./memory_design_exploration
#include <cstdio>

#include "nvsim/optimizer.hpp"
#include "sweep/result_table.hpp"
#include "util/units.hpp"
#include "vaet/ecc.hpp"
#include "vaet/estimator.hpp"

int main() {
  using namespace mss;
  using util::kNs;
  using util::kPj;

  const auto pdk = core::Pdk::mss45();
  constexpr std::size_t kCapacityBits = 4u << 20;
  constexpr std::size_t kWordBits = 256;
  constexpr double kErrorBudget = 1e-12;

  std::printf("=== Designing a 4 Mb MSS scratchpad (45 nm, %g error "
              "budget) ===\n\n", kErrorBudget);

  // [1] organisation exploration under a read-latency constraint — a
  // declarative sweep evaluated in parallel through sweep::Runner.
  nvsim::ExploreOptions eopt;
  eopt.constraints.max_read_latency = 3.0 * 1e-9;
  eopt.mats = {1, 2, 4};
  const auto candidates = nvsim::explore(pdk, kCapacityBits, kWordBits,
                                         nvsim::Goal::ReadEdp, eopt);
  std::printf("[1] %zu feasible organisations; top three by read EDP:\n",
              candidates.size());
  sweep::ResultTable orgs({"mats x rows x cols", "read_ns", "write_ns",
                           "area_mm2", "leakage_mW"});
  for (std::size_t i = 0; i < candidates.size() && i < 3; ++i) {
    const auto& c = candidates[i];
    orgs.add_row({std::to_string(c.mats) + "x" + std::to_string(c.org.rows) +
                      "x" + std::to_string(c.org.cols),
                  c.estimate.read_latency / kNs, c.estimate.write_latency / kNs,
                  c.estimate.area / util::kMm2,
                  c.estimate.leakage_power / util::kMw});
  }
  std::printf("%s\n", orgs.str(4).c_str());
  const auto best = candidates.front();

  // [2] variation-aware distributions for the chosen organisation.
  vaet::VaetOptions vopt;
  vopt.mc_samples = 2000;
  const vaet::VaetStt vaet(pdk, best.org, vopt);
  util::Rng rng(2024);
  const auto dist = vaet.monte_carlo(rng);
  std::printf("[2] variation-aware behaviour (chosen organisation):\n");
  sweep::ResultTable t1({"metric", "nominal", "mu", "sigma", "p99"});
  const auto add = [&t1](const char* metric,
                         const vaet::DistributionSummary& d, double unit) {
    t1.add_row({std::string(metric), d.nominal / unit, d.mean / unit,
                d.sigma / unit, d.p99 / unit});
  };
  add("write latency (ns)", dist.write_latency, kNs);
  add("read latency (ns)", dist.read_latency, kNs);
  add("write energy (pJ)", dist.write_energy, kPj);
  std::printf("%s\n", t1.str(4).c_str());

  // [3] raw write margin for the target.
  const double t_raw = vaet.write_latency_for_wer(kErrorBudget);
  std::printf("[3] raw write margin for %.0e WER: %.2f ns "
              "(%.1fx the nominal)\n\n", kErrorBudget, t_raw / kNs,
              t_raw / dist.write_latency.nominal);

  // [4] ECC trade-off.
  std::printf("[4] ECC alternative:\n");
  sweep::ResultTable t2({"scheme", "write_latency_ns", "overhead_pct"});
  const auto word_bits = static_cast<unsigned>(best.org.word_bits);
  for (unsigned t = 0; t <= 3; ++t) {
    vaet::EccScheme scheme;
    scheme.data_bits = word_bits;
    scheme.t_correct = t;
    const double lat = vaet.write_latency_with_ecc(kErrorBudget, t);
    t2.add_row({t == 0 ? std::string("no ECC") : "BCH t=" + std::to_string(t),
                lat / kNs, 100.0 * scheme.overhead()});
  }
  std::printf("%s", t2.str(4).c_str());
  const double t_ecc1 = vaet.write_latency_with_ecc(kErrorBudget, 1);
  std::printf("-> single-error correction buys %.0f%% write-latency "
              "reduction for %.1f%% extra bits.\n\n",
              100.0 * (1.0 - t_ecc1 / t_raw),
              100.0 * vaet::EccScheme{word_bits, 1}.overhead());

  // [5] read-disturb check of the margined read period.
  const double t_read = vaet.read_latency_for_rer(kErrorBudget);
  const double p_disturb = vaet.read_disturb_probability(t_read);
  std::printf("[5] read period for %.0e RER: %.2f ns -> disturb "
              "probability %.2e per access (%s the error budget)\n",
              kErrorBudget, t_read / kNs, p_disturb,
              p_disturb < kErrorBudget ? "within" : "EXCEEDS");
  if (p_disturb >= kErrorBudget) {
    std::printf("    -> the conflicting RER/disturb requirements (paper, "
                "Fig. 9) would force a shorter read with ECC cover.\n");
  }
  return 0;
}
