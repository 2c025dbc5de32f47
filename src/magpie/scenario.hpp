// The four MAGPIE evaluation scenarios of the paper (Section IV-D):
//
//   Full-SRAM            — reference big.LITTLE, all caches SRAM
//   LITTLE-L2-STT-MRAM   — L2 of the LITTLE cluster replaced by STT-MRAM
//   big-L2-STT-MRAM      — L2 of the big cluster replaced by STT-MRAM
//   Full-L2-STT-MRAM     — both L2s replaced
//
// Replacement is *iso-area*: the 1T-1MTJ cell is ~3-4x denser than the
// 6T SRAM cell, so the STT-MRAM L2 offers 4x the capacity in the same
// footprint (this is what lets the LITTLE-cluster scenario *reduce*
// execution time for capacity-hungry kernels, as the paper reports, while
// the higher write latency can slow the big cluster down).
//
// The STT-MRAM cache parameters are not invented here: they are derived
// from the NVSim-style array model and the VAET-STT reliability margins —
// the cross-layer hand-off (device -> circuit -> memory -> system) that is
// the point of the MAGPIE flow.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pdk.hpp"
#include "magpie/arch.hpp"
#include "magpie/mcpat.hpp"
#include "magpie/sim.hpp"
#include "magpie/workload.hpp"
#include "sweep/param_space.hpp"
#include "sweep/result_table.hpp"
#include "sweep/servable.hpp"

namespace mss::magpie {

/// The four evaluation scenarios.
enum class Scenario { FullSram, LittleL2Stt, BigL2Stt, FullL2Stt };

/// Scenario display name matching the paper's labels.
[[nodiscard]] const char* to_string(Scenario s);

/// All four, in presentation order.
[[nodiscard]] std::vector<Scenario> all_scenarios();

/// CACTI-style SRAM cache parameters at 45 nm.
[[nodiscard]] CacheTechParams sram_cache(std::size_t capacity_bytes);

/// STT-MRAM cache parameters derived through the cross-layer flow:
/// NVSim-style array organisation optimisation at `capacity_bytes`, read
/// latency margined for RER `rer_target`, write latency margined for WER
/// `wer_target` (VAET-STT), bank overhead applied.
[[nodiscard]] CacheTechParams stt_cache(const core::Pdk& pdk,
                                        std::size_t capacity_bytes,
                                        double wer_target = 1e-9,
                                        double rer_target = 1e-9);

/// Builds the platform for a scenario. `iso_area_factor` is the capacity
/// multiplier applied when an SRAM L2 is replaced by STT-MRAM (4x default).
[[nodiscard]] SystemConfig make_scenario(Scenario s, const core::Pdk& pdk,
                                         double iso_area_factor = 4.0);

/// One kernel x scenario outcome.
struct ScenarioRun {
  Scenario scenario = Scenario::FullSram;
  ActivityReport activity;
  EnergyBreakdown energy;
};

/// Options of the declarative scenario x workload sweep.
struct SweepOptions {
  std::uint64_t seed = 0xC0FFEE;
  double iso_area_factor = 4.0;
  /// sweep::Runner thread policy: 0 = shared global pool, 1 = serial,
  /// N = a shared pool of N threads. Results are bit-identical for every
  /// setting.
  std::size_t threads = 0;
};

/// The kernels x scenarios crossed ParamSpace the sweep evaluates: a
/// zipped ("kernel_index", "kernel") pair crossed with a zipped
/// ("scenario_index", "scenario") pair — kernel-major, scenarios in
/// presentation order.
[[nodiscard]] sweep::ParamSpace scenario_space(
    const std::vector<KernelParams>& kernels);

/// Runs every kernel x scenario point through sweep::Runner: the four
/// scenario platforms are derived once (the cross-layer NVSim/VAET hand-
/// off), then the points are simulated in parallel across the thread
/// pool. Result i corresponds to scenario_space(kernels).at(i) —
/// kernel-major, scenarios in presentation order.
[[nodiscard]] std::vector<ScenarioRun> run_scenario_sweep(
    const std::vector<KernelParams>& kernels, const core::Pdk& pdk,
    const SweepOptions& options = {});

/// Fig. 12 row: per-kernel metrics of one STT scenario normalised to the
/// Full-SRAM reference.
struct NormalizedMetrics {
  std::string kernel;
  Scenario scenario;
  double exec_time_ratio = 1.0;
  double energy_ratio = 1.0;
  double edp_ratio = 1.0;
};

/// Normalises a scenario run against the reference run.
[[nodiscard]] NormalizedMetrics normalize(const ScenarioRun& reference,
                                          const ScenarioRun& scenario);

/// The kernel x scenario sweep as a servable experiment
/// ("magpie.scenario") for the job server: columns kernel, scenario,
/// exec_time, energy, edp. Points carry the scenario_space() axes
/// (kernel_index/kernel zipped with scenario_index/scenario); the default
/// space is scenario_space(parsec_kernels()). The four scenario platforms
/// are derived lazily on first evaluation (the NVSim/VAET cross-layer
/// hand-off, shared across every job using the experiment) and the
/// workload seed is fixed at SweepOptions{}.seed, so a row depends only on
/// its point — matching run_scenario_sweep() with default options.
[[nodiscard]] sweep::RowExperiment servable_scenario_sweep();

/// Fig. 12 table from a sweep's results: one row per kernel x STT
/// scenario with exec-time / energy / EDP ratios against that kernel's
/// Full-SRAM run (columns kernel, scenario, time_ratio, energy_ratio,
/// edp_ratio). Runs are grouped by kernel name; kernels without a
/// Full-SRAM run are skipped.
[[nodiscard]] sweep::ResultTable normalized_table(
    const std::vector<ScenarioRun>& runs);

} // namespace mss::magpie
