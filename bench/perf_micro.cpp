// google-benchmark microbenchmarks of the library's hot kernels.
// Not a paper figure — performance hygiene for the simulation substrates:
// LLGS stepping, MNA transient solving, compact-model evaluation, the
// Monte-Carlo estimator (serial and thread-pool sharded) and the cache
// simulator.
//
// Trajectory tracking: record a run as JSON and diff against the previous
// snapshot —
//   ./bench_perf_micro --benchmark_format=json > BENCH_$(git rev-parse --short HEAD).json
// Thread scaling of the parallel kernels is the `/threads:N` suffix of
// BM_VaetMonteCarlo, BM_LlgThermalEnsemble, BM_NvsimExplore (the
// SPICE-calibrated organisation sweep through sweep::Runner) and
// BM_MagpieScenarioSweep (the kernel x scenario crossed sweep); real_time
// is the metric that must shrink with N, and every N reports bit-identical
// results.
// MNA solver scaling is the `/dim:N` suffix of BM_SpiceSparseTransient:
// per-step real_time over the matrix dimension (must scale
// sub-quadratically), plus BM_SpiceArrayWrite for the nonlinear
// array-characterisation path and BM_SpiceCellCharacterize for the
// cell-level netlists of tens of unknowns.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cells/bitcell.hpp"
#include "cells/characterization.hpp"
#include "cells/current_source.hpp"
#include "cells/nvff.hpp"
#include "cells/sense_amp.hpp"
#include "cells/write_driver.hpp"
#include "core/compact_model.hpp"
#include "core/pdk.hpp"
#include "core/wer_scenario.hpp"
#include "magpie/cache.hpp"
#include "magpie/scenario.hpp"
#include "magpie/workload.hpp"
#include "nvsim/optimizer.hpp"
#include "physics/llg.hpp"
#include "server/executor.hpp"
#include "server/registry.hpp"
#include "spice/elements.hpp"
#include "spice/engine.hpp"
#include "vaet/estimator.hpp"

namespace {

void BM_LlgDeterministicStep(benchmark::State& state) {
  mss::physics::LlgParams p;
  const mss::physics::LlgSolver solver(p);
  for (auto _ : state) {
    const auto run = solver.integrate({0.1, 0.0, -1.0}, 1e-9, 1e-12, 50e-6, 1024);
    benchmark::DoNotOptimize(run.trajectory.back().m.z);
  }
  state.SetItemsProcessed(state.iterations() * 1000); // steps per run
}
BENCHMARK(BM_LlgDeterministicStep);

void BM_LlgThermalStep(benchmark::State& state) {
  mss::physics::LlgParams p;
  const mss::physics::LlgSolver solver(p);
  mss::util::Rng rng(1);
  for (auto _ : state) {
    const auto run =
        solver.integrate_thermal({0.1, 0.0, -1.0}, 1e-9, 1e-12, 50e-6, rng, 1024);
    benchmark::DoNotOptimize(run.trajectory.back().m.z);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LlgThermalStep);

void BM_CompactModelWer(benchmark::State& state) {
  const mss::core::MtjCompactModel model{mss::core::MtjParams{}};
  const double ic =
      model.critical_current(mss::core::WriteDirection::ToAntiparallel);
  double t = 1e-9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.write_error_rate(
        mss::core::WriteDirection::ToAntiparallel, 2.0 * ic, t));
    t = t < 20e-9 ? t + 1e-12 : 1e-9;
  }
}
BENCHMARK(BM_CompactModelWer);

void BM_SpiceRcTransient(benchmark::State& state) {
  for (auto _ : state) {
    mss::spice::Circuit ckt;
    const int in = ckt.node("in");
    const int out = ckt.node("out");
    ckt.add(std::make_unique<mss::spice::VoltageSource>(
        "vin", in, mss::spice::kGround,
        std::make_unique<mss::spice::PulseWave>(0.0, 1.0, 1e-10, 1e-11,
                                                1e-11, 5e-9)));
    ckt.add(std::make_unique<mss::spice::Resistor>("r", in, out, 1e3));
    ckt.add(std::make_unique<mss::spice::Capacitor>("c", out,
                                                    mss::spice::kGround,
                                                    1e-12));
    mss::spice::Engine eng(ckt);
    const auto tr = eng.transient(5e-9, 5e-12);
    benchmark::DoNotOptimize(tr.v("out", tr.size() - 1));
  }
  state.SetItemsProcessed(state.iterations() * 1000); // steps per run
}
BENCHMARK(BM_SpiceRcTransient);

/// RC ladder of `dim` nodes: a linear transient whose per-step cost is one
/// back-substitution against the cached factorization. Per-step real_time
/// must stay sub-quadratic in the dimension (ladder nnz(LU) is O(dim)).
void BM_SpiceSparseTransient(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  mss::spice::Circuit ckt;
  int prev = ckt.node("n0");
  ckt.add(std::make_unique<mss::spice::VoltageSource>(
      "vin", prev, mss::spice::kGround,
      std::make_unique<mss::spice::PulseWave>(0.0, 1.0, 1e-10, 1e-11, 1e-11,
                                              5e-9)));
  for (std::size_t k = 1; k < n; ++k) {
    const int cur = ckt.node("n" + std::to_string(k));
    ckt.add(std::make_unique<mss::spice::Resistor>("r" + std::to_string(k),
                                                   prev, cur, 100.0));
    ckt.add(std::make_unique<mss::spice::Capacitor>(
        "c" + std::to_string(k), cur, mss::spice::kGround, 0.1e-12));
    prev = cur;
  }
  mss::spice::Engine eng(ckt);
  constexpr double kDt = 10e-12;
  constexpr double kStop = 2e-9; // 200 steps per run
  const std::string far_node = "n" + std::to_string(n - 1);
  for (auto _ : state) {
    const auto tr = eng.transient(kStop, kDt);
    benchmark::DoNotOptimize(tr.v(far_node, tr.size() - 1));
  }
  state.SetItemsProcessed(state.iterations() * 200); // steps per run
  state.counters["dim"] = double(n + 1);
}

BENCHMARK(BM_SpiceSparseTransient)
    ->ArgName("dim")
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096);

/// Nonlinear array-characterisation path: rows x rows bit-cell array write
/// (access MOSFET + MTJ per selected-row cell, distributed WL/BL RC),
/// Newton refactoring the sparse system every iteration.
void BM_SpiceArrayWrite(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const mss::core::Pdk pdk;
  mss::cells::ArrayNetlistOptions o;
  o.rows = rows;
  o.cols = rows;
  for (auto _ : state) {
    const auto wr = mss::cells::characterize_array_write(
        pdk, o, mss::core::WriteDirection::ToAntiparallel, 5e-9);
    benchmark::DoNotOptimize(wr.t_switch);
  }
}
// Every size runs the flat sparse backend. MinTime is raised above the
// 0.5 s default because rows:1024 / rows:64 feed the intra-snapshot
// --max-ratio CI gate: more iterations per measurement dilute scheduler
// bursts that would otherwise skew the ratio on a loaded runner.
BENCHMARK(BM_SpiceArrayWrite)->ArgName("rows")->Arg(16)->Arg(32)->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->MinTime(2.0)
    ->Unit(benchmark::kMillisecond);

/// The cell-level netlists of the fig. 6 test chip (tens of unknowns each):
/// one iteration runs bit-cell write and read, the latch sense amplifier,
/// the write driver, both NVFF data values and the current source.
void BM_SpiceCellCharacterize(benchmark::State& state) {
  const auto pdk = mss::core::Pdk::mss45();
  const mss::cells::Bitcell cell(pdk);
  const mss::cells::SenseAmp sa(pdk);
  const mss::cells::WriteDriver wd(pdk);
  const mss::cells::Nvff ff(pdk);
  const mss::cells::CurrentSource cs(pdk);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cell.characterize_write(mss::core::WriteDirection::ToAntiparallel,
                                20e-9)
            .t_switch);
    benchmark::DoNotOptimize(cell.characterize_read(5e-9).delta_i);
    benchmark::DoNotOptimize(sa.resolve(0.62, 0.55).t_resolve);
    benchmark::DoNotOptimize(wd.characterize().t_rise);
    benchmark::DoNotOptimize(ff.characterize(true).e_store);
    benchmark::DoNotOptimize(ff.characterize(false).e_store);
    benchmark::DoNotOptimize(cs.characterize().tuning_range);
  }
}
BENCHMARK(BM_SpiceCellCharacterize)->Unit(benchmark::kMillisecond);

void BM_VaetMonteCarloAccess(benchmark::State& state) {
  const auto pdk = mss::core::Pdk::mss45();
  mss::nvsim::ArrayOrg org{1024, 1024, 256};
  mss::vaet::VaetOptions opt;
  opt.mc_samples = 10;
  const mss::vaet::VaetStt vaet(pdk, org, opt);
  mss::util::Rng rng(7);
  for (auto _ : state) {
    const auto res = vaet.monte_carlo(rng);
    benchmark::DoNotOptimize(res.write_latency.mean);
  }
  state.SetItemsProcessed(state.iterations() * 10 * 256);
}
BENCHMARK(BM_VaetMonteCarloAccess);

// The sharded Monte-Carlo kernel at an explicit thread count (arg). The
// /threads:1 row is the serial baseline the speedup criterion compares
// against; all rows produce bit-identical VaetResult statistics.
void BM_VaetMonteCarlo(benchmark::State& state) {
  const auto pdk = mss::core::Pdk::mss45();
  mss::nvsim::ArrayOrg org{1024, 1024, 256};
  mss::vaet::VaetOptions opt;
  opt.mc_samples = 256;
  opt.threads = static_cast<std::size_t>(state.range(0));
  const mss::vaet::VaetStt vaet(pdk, org, opt);
  mss::util::Rng rng(7);
  for (auto _ : state) {
    const auto res = vaet.monte_carlo(rng);
    benchmark::DoNotOptimize(res.write_latency.mean);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(opt.mc_samples) * 256);
}
BENCHMARK(BM_VaetMonteCarlo)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0) // 0 = all hardware threads (shared pool)
    ->ArgName("threads")
    ->UseRealTime();

// Batched thermal-trajectory ensemble across the pool; no trajectories are
// materialized (record_stride = 0 inside the ensemble).
void BM_LlgThermalEnsemble(benchmark::State& state) {
  mss::physics::LlgParams p;
  const mss::physics::LlgSolver solver(p);
  mss::physics::LlgEnsembleOptions opt;
  opt.threads = static_cast<std::size_t>(state.range(0));
  mss::util::Rng rng(3);
  constexpr std::size_t kTrajectories = 64;
  for (auto _ : state) {
    const auto ens = solver.integrate_thermal_ensemble(
        kTrajectories, {0.0, 0.0, -1.0}, 2e-9, 1e-12, 60e-6, rng, opt);
    benchmark::DoNotOptimize(ens.n_switched);
  }
  state.SetItemsProcessed(state.iterations() * kTrajectories * 2000);
}
BENCHMARK(BM_LlgThermalEnsemble)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)
    ->ArgName("threads")
    ->UseRealTime();

// The scalar reference of the same ensemble: the 64 trajectories one at a
// time through thermal_initial_state + integrate_thermal on their own
// substreams, single thread. Against BM_LlgThermalEnsemble/threads:1 this
// isolates what the batched SIMD kernel buys per core (CI gates the ratio).
void BM_LlgThermalScalarReference(benchmark::State& state) {
  mss::physics::LlgParams p;
  const mss::physics::LlgSolver solver(p);
  mss::util::Rng rng(3);
  constexpr std::size_t kTrajectories = 64;
  for (auto _ : state) {
    std::size_t switched = 0;
    for (auto& stream : rng.jump_substreams(kTrajectories)) {
      const auto start = solver.thermal_initial_state(false, stream);
      switched += solver
                      .integrate_thermal(start, 2e-9, 1e-12, 60e-6, stream,
                                         /*record_stride=*/0)
                      .switched;
    }
    benchmark::DoNotOptimize(switched);
  }
  state.SetItemsProcessed(state.iterations() * kTrajectories * 2000);
}
BENCHMARK(BM_LlgThermalScalarReference)->UseRealTime();

// The VAET-facing stochastic write Monte-Carlo (the LLGS switch-probability
// kernel behind the estimator family's physical strategy) on the batched
// ensemble, single thread. Trajectories freeze at their first crossing, so
// this also exercises the lane-mask drain path.
void BM_VaetMonteCarloSimd(benchmark::State& state) {
  const mss::core::MtjCompactModel model{mss::core::MtjParams{}};
  const double ic =
      model.critical_current(mss::core::WriteDirection::ToAntiparallel);
  mss::util::Rng rng(7);
  const auto threads = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRuns = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.llgs_switch_probability(
        mss::core::WriteDirection::ToAntiparallel, 2.0 * ic, 2e-9, kRuns, rng,
        threads));
  }
  state.SetItemsProcessed(state.iterations() * kRuns);
}
BENCHMARK(BM_VaetMonteCarloSimd)->Arg(1)->ArgName("threads")->UseRealTime();

// SPICE-calibrated organisation exploration through sweep::Runner at an
// explicit thread count: ~18 (mats, rows) candidates, each an array-scale
// write+read characterisation on the sparse MNA backend. The /threads:1
// row is the serial baseline of the speedup criterion; every row returns
// bit-identical candidate lists.
void BM_NvsimExplore(benchmark::State& state) {
  const auto pdk = mss::core::Pdk::mss45();
  mss::nvsim::ExploreOptions opt;
  opt.mats = {1, 2, 4, 8, 16};
  opt.spice_calibrate = true;
  opt.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto cands = mss::nvsim::explore(pdk, 1u << 20, 512,
                                           mss::nvsim::Goal::ReadLatency, opt);
    benchmark::DoNotOptimize(cands.front().objective);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(
          mss::nvsim::organisation_space(1u << 20, 512, opt.mats).size()));
}
BENCHMARK(BM_NvsimExplore)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(0) // 0 = all hardware threads (shared pool)
    ->ArgName("threads")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The MAGPIE kernel x scenario crossed sweep (9 kernels x 4 scenarios)
// through sweep::Runner; per-point work is the trace-driven big.LITTLE
// simulation. Scenario platforms are derived once per explore call.
void BM_MagpieScenarioSweep(benchmark::State& state) {
  const auto pdk = mss::core::Pdk::mss45();
  auto kernels = mss::magpie::parsec_kernels();
  for (auto& k : kernels) k.instructions = 20'000;
  mss::magpie::SweepOptions opt;
  opt.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto runs = mss::magpie::run_scenario_sweep(kernels, pdk, opt);
    benchmark::DoNotOptimize(runs.front().activity.exec_time);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kernels.size() * 4));
}
BENCHMARK(BM_MagpieScenarioSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(0)
    ->ArgName("threads")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_GaussHermiteMargin(benchmark::State& state) {
  const auto pdk = mss::core::Pdk::mss45();
  mss::nvsim::ArrayOrg org{1024, 1024, 256};
  const mss::vaet::VaetStt vaet(pdk, org);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vaet.write_latency_for_wer(1e-12));
  }
}
BENCHMARK(BM_GaussHermiteMargin);

void BM_CacheAccess(benchmark::State& state) {
  mss::magpie::Cache l2(2u << 20, 16, 64, nullptr);
  mss::magpie::Cache l1(32u << 10, 4, 64, &l2);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto _ : state) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    benchmark::DoNotOptimize(l1.access(x % (8u << 20), (x & 1) != 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void BM_TraceGeneration(benchmark::State& state) {
  const auto kernel = mss::magpie::kernel_by_name("bodytrack");
  mss::magpie::TraceGenerator gen(kernel, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.next().addr);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration);

// --- the /wer: family: rare-event write-error engines -------------------
// The `wer` argument is the tail depth (-log10 WER) the operating point
// targets; CI guards the family like /dim:/threads:/rows: (bench_diff.py
// fails if the whole family vanishes from a snapshot).

// Analytic deep-tail closed form: invert pulse width for a target WER
// through the math::special erfcx/log_erfc path. Pure closed-form — this
// is the per-point cost the WerScenario sweep pays with trajectories = 0.
void BM_WerAnalyticPulseInversion(benchmark::State& state) {
  const mss::core::MtjCompactModel model{mss::core::MtjParams{}};
  const auto dir = mss::core::WriteDirection::ToAntiparallel;
  const double i = 1.5 * model.critical_current(dir);
  const double target = std::pow(10.0, -double(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.pulse_width_for_wer_ic_spread(dir, i, target, 0.05));
  }
}
BENCHMARK(BM_WerAnalyticPulseInversion)
    ->ArgName("wer")
    ->Arg(9)
    ->Arg(12)
    ->Arg(15);

// Importance-sampled LLGS estimator in the overlap regime (WER ~ 4e-3,
// band-derived proposal + defensive mixture), single thread: the per-core
// cost of the weighted estimator on the batched kernel.
void BM_WerImportanceSampledOverlap(benchmark::State& state) {
  mss::core::MtjParams p;
  p.alpha = 0.1;
  const mss::core::MtjCompactModel model(p);
  const auto dir = mss::core::WriteDirection::ToAntiparallel;
  const double i = 1.2 * model.critical_current(dir);
  mss::core::WerEstimateOptions opt;
  opt.ic_sigma_rel = 0.2;
  opt.threads = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kTrajectories = 512;
  mss::util::Rng rng(9);
  for (auto _ : state) {
    const auto est =
        model.llgs_write_error_rate(dir, i, 4e-9, kTrajectories, rng, opt);
    benchmark::DoNotOptimize(est.wer);
  }
  state.SetItemsProcessed(state.iterations() * kTrajectories);
}
BENCHMARK(BM_WerImportanceSampledOverlap)
    ->ArgNames({"wer", "threads"})
    ->Args({2, 1})
    ->UseRealTime();

// The deep-tail acceptance point (WER ~ 5e-14, Delta = 292): per-trajectory
// cost of reaching 13 decades below what brute force can resolve. The
// N(7, 1) threshold proposal is pinned through the options' proposal seam,
// the same one the WER test suite uses at this point, so the row does not
// move when the band-derived proposal changes. Throughput =
// trajectories/s; the test suite owns the statistical acceptance criteria.
void BM_WerImportanceSampledDeepTail(benchmark::State& state) {
  mss::core::MtjParams p;
  p.diameter = 60e-9;
  p.temperature = 100.0;
  p.alpha = 0.2;
  const mss::core::MtjCompactModel model(p);
  const auto dir = mss::core::WriteDirection::ToAntiparallel;
  const double i = 2.25 * model.critical_current(dir);
  mss::core::WerEstimateOptions opt;
  opt.ic_sigma_rel = 0.25;
  opt.proposal = mss::physics::ThresholdProposal{7.0, 1.0, 0.0};
  opt.threads = 1;
  constexpr std::size_t kTrajectories = 1024;
  mss::util::Rng rng(42);
  for (auto _ : state) {
    const auto est =
        model.llgs_write_error_rate(dir, i, 12e-9, kTrajectories, rng, opt);
    benchmark::DoNotOptimize(est.wer);
  }
  state.SetItemsProcessed(state.iterations() * kTrajectories);
}
BENCHMARK(BM_WerImportanceSampledDeepTail)
    ->ArgName("wer")
    ->Arg(13)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The IS-MC WER overlay stage of a reliability sweep: WerScenario over 5
// pulse widths x 2 temperatures at 256 trajectories per point (the shape
// of the perfbench reliability_flow overlay, fewer trajectories). The
// points run in order and each point's trajectories spread across the
// pool, so /threads:0 against /threads:1 is the stage's core occupancy;
// both rows produce bit-identical tables.
void BM_WerScenarioOverlay(benchmark::State& state) {
  mss::core::WerScenarioConfig cfg;
  cfg.pulse_widths = {3e-9, 4e-9, 5e-9, 7e-9, 10e-9};
  cfg.voltages = {0.45};
  cfg.temperatures = {300.0, 350.0};
  cfg.sigma_ic_rel = 0.2;
  cfg.trajectories = 256;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  const mss::core::WerScenario scenario(cfg);
  for (auto _ : state) {
    const auto pts = scenario.run();
    benchmark::DoNotOptimize(pts.back().mc.wer);
  }
  state.SetItemsProcessed(state.iterations() * 10 * 256);
}
BENCHMARK(BM_WerScenarioOverlay)
    ->Arg(1)
    ->Arg(0)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Persistent result-cache rerun cost (the mss-server warm-restart path):
// cache:0 evaluates every point cold and appends it (per-iteration seed
// bump defeats the memo), cache:1 reruns a pre-seeded sweep where every
// row is served from the cache. The warm/cold real_time ratio is the
// speedup a restarted server sees on resubmitted jobs; warm must stay far
// below cold (the /cache: family in scripts/bench_diff.py tracks both).
void BM_SweepCachedRerun(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  const auto exp = mss::server::demo_mc_tail_experiment();
  mss::sweep::ParamSpace space;
  space
      .cross(mss::sweep::Axis::list("samples",
                                    std::vector<std::int64_t>{20000}))
      .cross(mss::sweep::Axis::linear("threshold", 0.5, 3.0, 16));
  mss::server::ExecOptions opt;
  opt.threads = 1; // serial: the cache path, not pool dispatch, is timed
  opt.stripe_chunks = 4;
  const std::string path = warm ? "bench_sweep_cache_warm.mssc"
                                : "bench_sweep_cache_cold.mssc";
  std::remove(path.c_str());
  {
    mss::server::ResultCache cache(path);
    if (warm) {
      (void)mss::server::run_cached(exp, space, opt, &cache, nullptr,
                                    nullptr);
    }
    std::uint64_t cold_seed = opt.seed;
    for (auto _ : state) {
      if (!warm) opt.seed = ++cold_seed; // fresh identity: all misses
      mss::sweep::RunStats stats;
      std::size_t rows_seen = 0;
      (void)mss::server::run_cached(
          exp, space, opt, &cache, nullptr,
          [&](const mss::sweep::RunStats&,
              const std::vector<std::vector<mss::sweep::Value>>&,
              std::size_t end) { rows_seen = end; },
          &stats);
      benchmark::DoNotOptimize(rows_seen);
      benchmark::DoNotOptimize(stats.cache_hits);
    }
    state.SetItemsProcessed(state.iterations() * space.size());
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_SweepCachedRerun)
    ->ArgName("cache")
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime();

// Warm-restart cost of the persistent result cache: the constructor's
// replay of a file of N rows (length/CRC/structure checks of every
// record, and the key index). The rows are shaped like a served sweep's,
// ~130 bytes per record; the file is written once, outside the timing.
void BM_CacheReplay(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const std::string path = "bench_cache_replay.mssc";
  std::remove(path.c_str());
  {
    mss::server::ResultCache cache(path);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = double(i);
      cache.insert(mss::server::cache_key(
                       "nvsim.explore", 1, 0x5EEDC0DEull,
                       "capacity_mb=" + std::to_string(i % 64) +
                           ";node_nm=" + std::to_string(i / 64)),
                   {mss::sweep::Value(x), mss::sweep::Value(x * 0.5),
                    mss::sweep::Value(x + 0.25), mss::sweep::Value(1.0 / (x + 1)),
                    mss::sweep::Value(-x), mss::sweep::Value(x * x),
                    mss::sweep::Value(std::int64_t(i)),
                    mss::sweep::Value(std::string("stt-mram"))});
    }
  }
  for (auto _ : state) {
    mss::server::ResultCache cache(path);
    benchmark::DoNotOptimize(cache.entries());
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(n));
  std::remove(path.c_str());
}
BENCHMARK(BM_CacheReplay)
    ->ArgName("rows")
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

BENCHMARK_MAIN();
