// Determinism contract of the SIMD structure-of-arrays LLG batch layer:
//
//  * lane k of `integrate_thermal_batch` is bit-identical to a scalar
//    `integrate_thermal` run on lane k's (start, rng stream) — the batched
//    kernel mirrors the scalar step expression-for-expression;
//  * `integrate_thermal_ensemble` statistics are bit-identical for any
//    thread count, because trajectories are keyed to per-trajectory jump
//    substreams and accumulated in trajectory order;
//  * masked lanes (partial tail batches) and stop_on_switch freezing are
//    per-trajectory decisions, so they preserve both contracts.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "physics/llg.hpp"
#include "util/rng.hpp"

namespace mp = mss::physics;
namespace mu = mss::util;

namespace {

mp::LlgParams test_params() {
  mp::LlgParams p;
  p.ms = 1.0e6;
  p.alpha = 0.02;
  p.hk_eff = 2.0e5;
  p.volume = 1.6e-24;
  p.area = 1.26e-15;
  p.t_fl = 1.3e-9;
  p.polarization = 0.6;
  p.temperature = 300.0;
  return p;
}

mp::LlgEnsembleResult run_ensemble(std::size_t threads, std::uint64_t seed,
                                   std::size_t n = 37,
                                   bool stop_on_switch = false) {
  const mp::LlgSolver solver(test_params());
  mp::LlgEnsembleOptions opt;
  opt.threads = threads;
  opt.stop_on_switch = stop_on_switch;
  mu::Rng rng(seed);
  return solver.integrate_thermal_ensemble(n, {0.0, 0.0, -1.0}, 1.5e-9, 1e-12,
                                           150e-6, rng, opt);
}

void expect_identical(const mp::LlgEnsembleResult& a,
                      const mp::LlgEnsembleResult& b) {
  EXPECT_EQ(a.n_trajectories, b.n_trajectories);
  EXPECT_EQ(a.n_switched, b.n_switched);
  EXPECT_EQ(a.switch_time.count(), b.switch_time.count());
  EXPECT_EQ(a.switch_time.mean(), b.switch_time.mean());
  EXPECT_EQ(a.switch_time.stddev(), b.switch_time.stddev());
  EXPECT_EQ(a.switch_time.min(), b.switch_time.min());
  EXPECT_EQ(a.switch_time.max(), b.switch_time.max());
  EXPECT_EQ(a.mean_mz_final, b.mean_mz_final);
}

} // namespace

// The invariance matrix: threads 1, 2 and 8 must be bit-identical. n = 37
// is deliberately not a multiple of the lane count or of the chunk size, so
// partial chunks and masked tail lanes are exercised at every thread count.
// This is how thread correctness is verified on single-CPU runners, where
// scaling curves are flat by design.
TEST(LlgSimd, EnsembleBitIdenticalAcrossThreads) {
  const auto reference = run_ensemble(1, 11);
  EXPECT_GT(reference.n_switched, 0u);
  for (const std::size_t threads : {2u, 8u}) {
    expect_identical(reference, run_ensemble(threads, 11));
  }
}

TEST(LlgSimd, StopOnSwitchBitIdenticalAcrossThreads) {
  const auto reference = run_ensemble(1, 13, 37, /*stop_on_switch=*/true);
  EXPECT_GT(reference.n_switched, 0u);
  for (const std::size_t threads : {2u, 8u}) {
    expect_identical(reference, run_ensemble(threads, 13, 37, true));
  }
}

// Lane k of the batched kernel must reproduce the scalar integrator
// bit-for-bit: same start, same per-trajectory stream, same switch flag,
// switch time, and final magnetisation.
TEST(LlgSimd, BatchLanesMatchScalarIntegratorBitForBit) {
  const mp::LlgSolver solver(test_params());
  constexpr std::size_t W = mp::LlgSolver::kLanes;
  mu::Rng root(29);
  const std::vector<mu::Rng> streams = root.jump_substreams(W);

  // Scalar reference, trajectory by trajectory.
  std::array<mp::LlgRun, W> scalar;
  std::array<mp::Vec3, W> starts;
  {
    std::array<mu::Rng, W> rngs;
    for (std::size_t k = 0; k < W; ++k) {
      rngs[k] = streams[k];
      starts[k] = solver.thermal_initial_state(false, rngs[k]);
      scalar[k] = solver.integrate_thermal(starts[k], 1e-9, 1e-12, 80e-6,
                                           rngs[k], /*record_stride=*/0);
    }
  }

  // Batched run on the same streams and starts.
  std::array<mu::Rng, W> lanes;
  std::array<mp::Vec3, W> batch_starts;
  for (std::size_t k = 0; k < W; ++k) {
    lanes[k] = streams[k];
    batch_starts[k] = solver.thermal_initial_state(false, lanes[k]);
    EXPECT_EQ(batch_starts[k].x, starts[k].x);
    EXPECT_EQ(batch_starts[k].z, starts[k].z);
  }
  const auto batch = solver.integrate_thermal_batch(
      batch_starts, 1e-9, 1e-12, 80e-6, lanes.data(), (1u << W) - 1u);

  for (std::size_t k = 0; k < W; ++k) {
    EXPECT_EQ(batch.switched[k], scalar[k].switched) << "lane " << k;
    EXPECT_EQ(batch.switch_time[k], scalar[k].switch_time) << "lane " << k;
    EXPECT_EQ(batch.m_final[k].x, scalar[k].m_final.x) << "lane " << k;
    EXPECT_EQ(batch.m_final[k].y, scalar[k].m_final.y) << "lane " << k;
    EXPECT_EQ(batch.m_final[k].z, scalar[k].m_final.z) << "lane " << k;
  }
}

// The ensemble's scalar reference: trajectory k is exactly
// thermal_initial_state + integrate_thermal on substream k, accumulated in
// trajectory order. Replaying that by hand must reproduce the ensemble's
// statistics bit-for-bit (here against a threaded run).
TEST(LlgSimd, EnsembleMatchesHandRolledScalarReference) {
  const mp::LlgSolver solver(test_params());
  constexpr std::size_t kN = 21;
  mu::Rng rng(47);
  mu::Rng probe = rng; // same state: replay the stream derivation
  const auto ens = [&] {
    mp::LlgEnsembleOptions opt;
    opt.threads = 2;
    return solver.integrate_thermal_ensemble(kN, {0.0, 0.0, -1.0}, 1e-9,
                                             1e-12, 150e-6, rng, opt);
  }();

  const std::vector<mu::Rng> streams = probe.jump_substreams(kN);
  std::size_t switched = 0;
  mu::RunningStats switch_time;
  double mz_sum = 0.0;
  for (std::size_t k = 0; k < kN; ++k) {
    mu::Rng r = streams[k];
    const mp::Vec3 start = solver.thermal_initial_state(false, r);
    const auto run = solver.integrate_thermal(start, 1e-9, 1e-12, 150e-6, r,
                                              /*record_stride=*/0);
    if (run.switched) {
      ++switched;
      switch_time.add(run.switch_time);
    }
    mz_sum += run.m_final.z;
  }

  EXPECT_EQ(ens.n_switched, switched);
  EXPECT_EQ(ens.switch_time.mean(), switch_time.mean());
  EXPECT_EQ(ens.switch_time.stddev(), switch_time.stddev());
  EXPECT_EQ(ens.mean_mz_final, mz_sum / double(kN));
  // And the caller's rng advanced identically.
  EXPECT_EQ(rng.next_u64(), probe.next_u64());
}

// Masked-out lanes draw nothing and report empty results; active lanes are
// unaffected by who rides beside them.
TEST(LlgSimd, InactiveLanesAreInertAndReportNothing) {
  const mp::LlgSolver solver(test_params());
  constexpr std::size_t W = mp::LlgSolver::kLanes;
  static_assert(W == 4, "the lane masks below spell out four lanes");
  mu::Rng root(5);
  const std::vector<mu::Rng> streams = root.jump_substreams(W);

  std::array<mu::Rng, W> full_lanes;
  std::array<mp::Vec3, W> starts;
  starts.fill(mp::Vec3{0.05, 0.0, -1.0});
  for (std::size_t k = 0; k < W; ++k) full_lanes[k] = streams[k];
  const auto full = solver.integrate_thermal_batch(
      starts, 1e-9, 1e-12, 150e-6, full_lanes.data(), 0xFu);

  // Same batch with only lanes 0 and 2 active.
  std::array<mu::Rng, W> some_lanes;
  for (std::size_t k = 0; k < W; ++k) some_lanes[k] = streams[k];
  const auto some = solver.integrate_thermal_batch(
      starts, 1e-9, 1e-12, 150e-6, some_lanes.data(), 0b0101u);

  for (const std::size_t k : {0u, 2u}) {
    EXPECT_EQ(some.switched[k], full.switched[k]);
    EXPECT_EQ(some.switch_time[k], full.switch_time[k]);
    EXPECT_EQ(some.m_final[k].z, full.m_final[k].z);
  }
  for (const std::size_t k : {1u, 3u}) {
    EXPECT_FALSE(some.switched[k]);
    EXPECT_EQ(some.switch_time[k], 0.0);
    EXPECT_EQ(some.m_final[k].x, 0.0);
    EXPECT_EQ(some.m_final[k].z, 0.0);
  }
  // Inactive lanes consumed nothing from their streams.
  mu::Rng untouched = streams[1];
  EXPECT_EQ(some_lanes[1].next_u64(), untouched.next_u64());
}

// stop_on_switch freezes a lane at its first crossing: switch statistics
// are unchanged (the crossing is latched either way), m_final reflects the
// crossing, and the batch drains early once every lane has finished.
TEST(LlgSimd, StopOnSwitchFreezesLanesAndDrainsEarly) {
  const mp::LlgSolver solver(test_params());
  constexpr std::size_t W = mp::LlgSolver::kLanes;
  mu::Rng root(17);
  const std::vector<mu::Rng> streams = root.jump_substreams(W);
  std::array<mp::Vec3, W> starts;
  starts.fill(mp::Vec3{0.05, 0.0, -1.0});

  std::array<mu::Rng, W> a_lanes, b_lanes;
  for (std::size_t k = 0; k < W; ++k) a_lanes[k] = b_lanes[k] = streams[k];
  // A strong pulse: every trajectory switches well before the 4 ns horizon.
  const auto run_full = solver.integrate_thermal_batch(
      starts, 4e-9, 1e-12, 250e-6, a_lanes.data(), (1u << W) - 1u,
      /*stop_on_switch=*/false);
  const auto run_stop = solver.integrate_thermal_batch(
      starts, 4e-9, 1e-12, 250e-6, b_lanes.data(), (1u << W) - 1u,
      /*stop_on_switch=*/true);

  for (std::size_t k = 0; k < W; ++k) {
    ASSERT_TRUE(run_full.switched[k]);
    EXPECT_TRUE(run_stop.switched[k]);
    EXPECT_EQ(run_stop.switch_time[k], run_full.switch_time[k]);
    // Frozen at the crossing: just across m_z = 0, not relaxed to +z.
    EXPECT_GT(run_stop.m_final[k].z, 0.0);
    EXPECT_LT(run_stop.m_final[k].z, 0.9);
    EXPECT_GT(run_full.m_final[k].z, 0.9);
  }
  // Full run executes every step (ceil(duration/dt), same rounding as the
  // scalar integrator); the frozen batch drains at the last lane's switch.
  EXPECT_EQ(run_full.steps_run,
            std::size_t(std::ceil(4e-9 / 1e-12)));
  EXPECT_LT(run_stop.steps_run, run_full.steps_run);
}

TEST(LlgSimd, BatchKernelRejectsBadTimeStep) {
  const mp::LlgSolver solver(test_params());
  std::array<mp::Vec3, mp::LlgSolver::kLanes> starts;
  starts.fill(mp::Vec3{0.0, 0.0, 1.0});
  std::array<mu::Rng, mp::LlgSolver::kLanes> lanes;
  EXPECT_THROW((void)solver.integrate_thermal_batch(
                   starts, 1e-9, 0.0, 0.0, lanes.data(), 0xFu),
               std::invalid_argument);
}

// Golden ensemble statistics at the default options, pinned exactly
// (doubles as hexfloat literals): a change to the stepping expression, the
// substream keying or the reduction order fails here, where a relative
// tolerance would let a reordered sum through. n = 45 leaves a partial
// chunk and a masked tail batch.
namespace {

void expect_golden_ensemble(bool stop_on_switch, double mean_mz_final) {
  const mp::LlgSolver solver(test_params());
  mp::LlgEnsembleOptions opt;
  opt.stop_on_switch = stop_on_switch;
  mu::Rng rng(2024);
  const auto ens = solver.integrate_thermal_ensemble(
      45, {0.0, 0.0, -1.0}, 1.5e-9, 1e-12, 150e-6, rng, opt);
  EXPECT_EQ(ens.n_trajectories, 45u);
  EXPECT_EQ(ens.n_switched, 38u);
  EXPECT_EQ(ens.switch_time.count(), 38u);
  EXPECT_EQ(ens.switch_time.mean(), 0x1.18f7f7a7c8774p-30);
  EXPECT_EQ(ens.switch_time.stddev(), 0x1.725975d8e8f1dp-33);
  EXPECT_EQ(ens.switch_time.min(), 0x1.92f8943703b99p-31);
  EXPECT_EQ(ens.switch_time.max(), 0x1.8160fab5d5cf9p-30);
  EXPECT_EQ(ens.mean_mz_final, mean_mz_final);
  EXPECT_EQ(rng.uniform(), 0x1.906fe7dd14f42p-1);
}

} // namespace

TEST(LlgGolden, EnsembleFullPulsePinned) {
  expect_golden_ensemble(false, 0x1.5299f1efee06ep-1);
}

// Frozen lanes latch the same crossings; only m_final moves.
TEST(LlgGolden, EnsembleStopOnSwitchPinned) {
  expect_golden_ensemble(true, -0x1.53cba8b3377a9p-4);
}
