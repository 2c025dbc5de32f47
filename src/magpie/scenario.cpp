#include "magpie/scenario.hpp"

#include <cmath>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "nvsim/optimizer.hpp"
#include "sweep/experiment.hpp"
#include "vaet/estimator.hpp"

namespace mss::magpie {

SystemConfig SystemConfig::reference_full_sram() {
  SystemConfig sys;
  sys.name = "Full-SRAM";

  // LITTLE cluster: A7-like in-order cores.
  sys.little.core.name = "LITTLE";
  sys.little.core.freq_hz = 1.2e9;
  sys.little.core.base_ipc = 0.8;
  sys.little.core.miss_overlap = 0.15;
  sys.little.core.wb_exposed = 0.15;
  sys.little.core.energy_per_instr = 40e-12;
  sys.little.core.static_power = 0.020;
  sys.little.n_cores = 4;
  sys.little.l1_bytes = 32 * 1024;
  sys.little.l1_ways = 4;
  sys.little.l1_energy = 15e-12;
  sys.little.l1_leakage_per_kb = 0.10e-3;
  sys.little.l2_ways = 8;
  sys.little.l2 = sram_cache(512 * 1024);

  // big cluster: A15-like out-of-order cores.
  sys.big.core.name = "big";
  sys.big.core.freq_hz = 1.6e9;
  sys.big.core.base_ipc = 1.6;
  sys.big.core.miss_overlap = 0.55;
  sys.big.core.wb_exposed = 0.08;
  sys.big.core.energy_per_instr = 150e-12;
  sys.big.core.static_power = 0.125;
  sys.big.n_cores = 4;
  sys.big.l1_bytes = 32 * 1024;
  sys.big.l1_ways = 4;
  sys.big.l1_energy = 20e-12;
  sys.big.l1_leakage_per_kb = 0.12e-3;
  sys.big.l2_ways = 16;
  sys.big.l2 = sram_cache(2 * 1024 * 1024);

  return sys;
}

const char* to_string(Scenario s) {
  switch (s) {
    case Scenario::FullSram: return "Full-SRAM";
    case Scenario::LittleL2Stt: return "LITTLE-L2-STT-MRAM";
    case Scenario::BigL2Stt: return "big-L2-STT-MRAM";
    case Scenario::FullL2Stt: return "Full-L2-STT-MRAM";
  }
  return "?";
}

std::vector<Scenario> all_scenarios() {
  return {Scenario::FullSram, Scenario::LittleL2Stt, Scenario::BigL2Stt,
          Scenario::FullL2Stt};
}

CacheTechParams sram_cache(std::size_t capacity_bytes) {
  CacheTechParams p;
  p.tech = MemTech::Sram;
  p.capacity_bytes = capacity_bytes;
  const double kb = double(capacity_bytes) / 1024.0;
  // CACTI-flavoured 45 nm scaling laws.
  p.read_latency = (0.5 + 0.28 * std::log2(kb)) * 1e-9;
  p.write_latency = p.read_latency;
  p.read_energy = 40e-12 * std::sqrt(kb / 32.0);
  p.write_energy = p.read_energy;
  p.leakage = 0.30e-3 * kb; // [W]; 6T cells leak continuously
  // 6T SRAM cell ~ 146 F^2 + periphery.
  const double f = 45e-9;
  p.area = double(capacity_bytes) * 8.0 * 146.0 * f * f * 1.3;
  return p;
}

CacheTechParams stt_cache(const core::Pdk& pdk, std::size_t capacity_bytes,
                          double wer_target, double rer_target) {
  // Cross-layer derivation: pick the best subarray organisation for a
  // 1 Mb mat, then apply VAET-STT reliability margins for the cache's
  // read/write timing. Banks replicate mats; an H-tree overhead covers the
  // inter-mat routing.
  constexpr std::size_t kMatBits = 1024 * 1024;
  constexpr double kBankOverheadLatency = 1.30;
  constexpr double kBankOverheadEnergy = 1.15;

  const auto best = nvsim::optimize(pdk, kMatBits, 512,
                                    nvsim::Goal::ReadLatency);
  if (!best) throw std::logic_error("stt_cache: no feasible organisation");

  vaet::VaetOptions vopt;
  vopt.mc_samples = 200; // margins below are analytic; MC unused here
  const vaet::VaetStt vaet(pdk, best->org, vopt);

  const std::size_t bits = capacity_bytes * 8;
  const double n_mats = std::ceil(double(bits) / double(kMatBits));

  CacheTechParams p;
  p.tech = MemTech::SttMram;
  p.capacity_bytes = capacity_bytes;
  p.read_latency =
      vaet.read_latency_for_rer(rer_target) * kBankOverheadLatency;
  p.write_latency =
      vaet.write_latency_for_wer(wer_target) * kBankOverheadLatency;
  p.read_energy = best->estimate.read_energy * kBankOverheadEnergy;
  p.write_energy = best->estimate.write_energy * kBankOverheadEnergy;
  // Only periphery leaks; the MTJ array is non-volatile.
  p.leakage = best->estimate.leakage_power * n_mats;
  p.area = best->estimate.area * n_mats * 1.2;
  return p;
}

SystemConfig make_scenario(Scenario s, const core::Pdk& pdk,
                           double iso_area_factor) {
  SystemConfig sys = SystemConfig::reference_full_sram();
  sys.name = to_string(s);
  const auto replace = [&](ClusterParams& cl) {
    const auto cap = static_cast<std::size_t>(
        double(cl.l2.capacity_bytes) * iso_area_factor);
    cl.l2 = stt_cache(pdk, cap);
  };
  switch (s) {
    case Scenario::FullSram:
      break;
    case Scenario::LittleL2Stt:
      replace(sys.little);
      break;
    case Scenario::BigL2Stt:
      replace(sys.big);
      break;
    case Scenario::FullL2Stt:
      replace(sys.little);
      replace(sys.big);
      break;
  }
  return sys;
}

sweep::ParamSpace scenario_space(const std::vector<KernelParams>& kernels) {
  std::vector<std::int64_t> kernel_idx;
  std::vector<std::string> kernel_names;
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    kernel_idx.push_back(std::int64_t(k));
    kernel_names.push_back(kernels[k].name);
  }
  // scenario_index is the *position* in all_scenarios() (like
  // kernel_index), not the enum value — the sweep indexes the derived
  // platform list with it.
  std::vector<std::int64_t> scenario_idx;
  std::vector<std::string> scenario_names;
  const auto scenarios = all_scenarios();
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    scenario_idx.push_back(std::int64_t(s));
    scenario_names.push_back(to_string(scenarios[s]));
  }
  sweep::ParamSpace space;
  space
      .zip({sweep::Axis::list("kernel_index", std::move(kernel_idx)),
            sweep::Axis::list("kernel", std::move(kernel_names))})
      .zip({sweep::Axis::list("scenario_index", std::move(scenario_idx)),
            sweep::Axis::list("scenario", std::move(scenario_names))});
  return space;
}

std::vector<ScenarioRun> run_scenario_sweep(
    const std::vector<KernelParams>& kernels, const core::Pdk& pdk,
    const SweepOptions& options) {
  // Derive the four platforms once — the NVSim/VAET cross-layer hand-off
  // is per scenario, not per point.
  const auto scenarios = all_scenarios();
  std::vector<SystemConfig> systems;
  systems.reserve(scenarios.size());
  for (const Scenario s : scenarios) {
    systems.push_back(make_scenario(s, pdk, options.iso_area_factor));
  }

  const auto exp = sweep::make_experiment(
      "magpie-scenarios",
      [&](const sweep::Point& p, util::Rng&) -> ScenarioRun {
        const auto ki = std::size_t(p.integer("kernel_index"));
        const auto si = std::size_t(p.integer("scenario_index"));
        ScenarioRun run;
        run.scenario = scenarios[si];
        run.activity = simulate(systems[si], kernels[ki], options.seed);
        run.energy = energy_rollup(systems[si], run.activity);
        return run;
      });

  const sweep::Runner runner(
      {.threads = options.threads, .seed = options.seed});
  return runner.run(scenario_space(kernels), exp);
}

sweep::ResultTable normalized_table(const std::vector<ScenarioRun>& runs) {
  sweep::ResultTable t(
      {"kernel", "scenario", "time_ratio", "energy_ratio", "edp_ratio"});
  for (const auto& run : runs) {
    if (run.scenario == Scenario::FullSram) continue;
    const ScenarioRun* ref = nullptr;
    for (const auto& cand : runs) {
      if (cand.scenario == Scenario::FullSram &&
          cand.activity.kernel == run.activity.kernel) {
        ref = &cand;
        break;
      }
    }
    if (!ref) continue;
    const NormalizedMetrics m = normalize(*ref, run);
    t.add_row({m.kernel, std::string(to_string(m.scenario)),
               m.exec_time_ratio, m.energy_ratio, m.edp_ratio});
  }
  return t;
}

sweep::RowExperiment servable_scenario_sweep() {
  sweep::RowExperiment exp;
  exp.id = "magpie.scenario";
  exp.version = 1;
  exp.description =
      "MAGPIE kernel x scenario sweep: exec time / energy / EDP per PARSEC "
      "kernel on the four L2 scenarios";
  exp.columns = {"kernel", "scenario", "exec_time", "energy", "edp"};
  exp.default_space = [] { return scenario_space(parsec_kernels()); };

  // The cross-layer platform derivation (NVSim organisation + VAET
  // margins) is expensive and identical for every point, so it is shared
  // across all jobs of the experiment and run once, on first demand —
  // never at registration, which must stay cheap for `mss-client
  // experiments`.
  struct Shared {
    std::once_flag once;
    std::vector<KernelParams> kernels;
    std::vector<SystemConfig> systems;
  };
  auto shared = std::make_shared<Shared>();

  exp.evaluate = [shared](const sweep::Point& p,
                          util::Rng&) -> std::vector<sweep::Value> {
    std::call_once(shared->once, [&] {
      shared->kernels = parsec_kernels();
      const core::Pdk pdk = core::Pdk::mss45();
      const SweepOptions defaults;
      for (const Scenario s : all_scenarios()) {
        shared->systems.push_back(
            make_scenario(s, pdk, defaults.iso_area_factor));
      }
    });
    const auto ki = std::size_t(p.integer("kernel_index"));
    const auto si = std::size_t(p.integer("scenario_index"));
    if (ki >= shared->kernels.size() || si >= shared->systems.size() ||
        shared->kernels[ki].name != p.str("kernel")) {
      throw std::invalid_argument(
          "magpie.scenario: point does not name a PARSEC kernel x scenario");
    }
    const SweepOptions defaults;
    const ActivityReport activity =
        simulate(shared->systems[si], shared->kernels[ki], defaults.seed);
    const EnergyBreakdown energy =
        energy_rollup(shared->systems[si], activity);
    return {shared->kernels[ki].name, std::string(to_string(all_scenarios()[si])),
            activity.exec_time, energy.total(), energy.edp()};
  };
  return exp;
}

NormalizedMetrics normalize(const ScenarioRun& reference,
                            const ScenarioRun& scenario) {
  NormalizedMetrics m;
  m.kernel = reference.activity.kernel;
  m.scenario = scenario.scenario;
  m.exec_time_ratio =
      scenario.activity.exec_time / reference.activity.exec_time;
  m.energy_ratio = scenario.energy.total() / reference.energy.total();
  m.edp_ratio = scenario.energy.edp() / reference.energy.edp();
  return m;
}

} // namespace mss::magpie
