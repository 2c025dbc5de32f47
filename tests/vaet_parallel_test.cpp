// Determinism contract of the parallel Monte-Carlo subsystem: the sharded
// estimator and the LLG thermal ensemble must produce *bit-identical*
// statistics for every thread count, because samples are keyed to RNG jump
// substreams by fixed-size chunk index rather than by thread.
#include <gtest/gtest.h>

#include "physics/llg.hpp"
#include "vaet/estimator.hpp"

namespace mv = mss::vaet;
namespace mp = mss::physics;

namespace {

mv::VaetResult run_mc(std::size_t threads, std::uint64_t seed,
                      std::size_t samples = 200) {
  mss::nvsim::ArrayOrg org;
  org.rows = 1024;
  org.cols = 1024;
  org.word_bits = 256;
  mv::VaetOptions opt;
  opt.mc_samples = samples;
  opt.threads = threads;
  const mv::VaetStt vaet(mss::core::Pdk::mss45(), org, opt);
  mss::util::Rng rng(seed);
  return vaet.monte_carlo(rng);
}

void expect_identical(const mv::DistributionSummary& a,
                      const mv::DistributionSummary& b) {
  EXPECT_EQ(a.nominal, b.nominal);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.sigma, b.sigma);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.p99, b.p99);
}

} // namespace

TEST(VaetParallel, MonteCarloBitIdenticalAcrossThreadCounts) {
  const auto serial = run_mc(1, 42);
  for (const std::size_t threads : {2u, 3u, 4u, 0u}) {
    const auto parallel = run_mc(threads, 42);
    expect_identical(serial.write_latency, parallel.write_latency);
    expect_identical(serial.write_energy, parallel.write_energy);
    expect_identical(serial.read_latency, parallel.read_latency);
    expect_identical(serial.read_energy, parallel.read_energy);
  }
}

TEST(VaetParallel, DifferentSeedsStillDiffer) {
  const auto a = run_mc(4, 1, 100);
  const auto b = run_mc(4, 2, 100);
  EXPECT_NE(a.write_latency.mean, b.write_latency.mean);
}

TEST(VaetParallel, OddSampleCountCoversPartialChunk) {
  // 2*32 + 7 samples: the last chunk is partial; every sample must land.
  const auto a = run_mc(1, 9, 71);
  const auto b = run_mc(4, 9, 71);
  expect_identical(a.write_latency, b.write_latency);
  expect_identical(a.read_energy, b.read_energy);
}

namespace {

mp::LlgEnsembleResult run_ensemble(std::size_t threads, std::uint64_t seed) {
  mp::LlgParams p; // defaults: a realistic perpendicular free layer
  const mp::LlgSolver solver(p);
  mp::LlgEnsembleOptions opt;
  opt.threads = threads;
  mss::util::Rng rng(seed);
  // Strong overdrive pulse towards +z from the -z basin.
  return solver.integrate_thermal_ensemble(40, {0.0, 0.0, -1.0}, 3e-9, 1e-12,
                                           200e-6, rng, opt);
}

} // namespace

TEST(LlgEnsemble, BitIdenticalAcrossThreadCounts) {
  const auto serial = run_ensemble(1, 11);
  for (const std::size_t threads : {2u, 4u, 0u}) {
    const auto parallel = run_ensemble(threads, 11);
    EXPECT_EQ(serial.n_switched, parallel.n_switched);
    EXPECT_EQ(serial.switch_time.count(), parallel.switch_time.count());
    EXPECT_EQ(serial.switch_time.mean(), parallel.switch_time.mean());
    EXPECT_EQ(serial.switch_time.stddev(), parallel.switch_time.stddev());
    EXPECT_EQ(serial.mean_mz_final, parallel.mean_mz_final);
  }
}

TEST(LlgEnsemble, StrongPulseSwitchesMostTrajectories) {
  const auto ens = run_ensemble(1, 13);
  EXPECT_EQ(ens.n_trajectories, 40u);
  EXPECT_GT(ens.p_switch(), 0.8);
  EXPECT_GT(ens.switch_time.mean(), 0.0);
  EXPECT_LT(ens.switch_time.mean(), 3e-9);
  // Switched to the +z basin on average.
  EXPECT_GT(ens.mean_mz_final, 0.0);
}

TEST(LlgEnsemble, AdvancesCallerRng) {
  // Consecutive ensembles from one generator must see fresh randomness.
  mp::LlgParams p;
  const mp::LlgSolver solver(p);
  mss::util::Rng rng(21);
  const auto a = solver.integrate_thermal_ensemble(20, {0.0, 0.0, -1.0}, 1e-9,
                                                   1e-12, 60e-6, rng);
  const auto b = solver.integrate_thermal_ensemble(20, {0.0, 0.0, -1.0}, 1e-9,
                                                   1e-12, 60e-6, rng);
  EXPECT_NE(a.mean_mz_final, b.mean_mz_final);
}

TEST(LlgEnsemble, RejectsBadStep) {
  mp::LlgParams p;
  const mp::LlgSolver solver(p);
  mss::util::Rng rng(1);
  EXPECT_THROW((void)solver.integrate_thermal_ensemble(
                   10, {0.0, 0.0, 1.0}, 1e-9, 0.0, 60e-6, rng),
               std::invalid_argument);
}
