// Tests of the four MAGPIE scenarios and the McPAT-style energy roll-up.
#include "magpie/scenario.hpp"

#include <gtest/gtest.h>

namespace mm = mss::magpie;

namespace {
const mss::core::Pdk& pdk45() {
  static const auto pdk = mss::core::Pdk::mss45();
  return pdk;
}
} // namespace

TEST(Scenario, SramCacheScalesWithCapacity) {
  const auto small = mm::sram_cache(512 * 1024);
  const auto large = mm::sram_cache(2 * 1024 * 1024);
  EXPECT_GT(large.read_latency, small.read_latency);
  EXPECT_GT(large.read_energy, small.read_energy);
  EXPECT_GT(large.leakage, small.leakage);
  EXPECT_EQ(small.tech, mm::MemTech::Sram);
}

TEST(Scenario, SttCacheDerivedFromCrossLayerFlow) {
  const auto stt = mm::stt_cache(pdk45(), 2 * 1024 * 1024);
  EXPECT_EQ(stt.tech, mm::MemTech::SttMram);
  // STT-MRAM: much slower writes than reads, near-zero leakage.
  EXPECT_GT(stt.write_latency, 2.0 * stt.read_latency);
  EXPECT_GT(stt.write_energy, stt.read_energy);
  const auto sram = mm::sram_cache(2 * 1024 * 1024);
  EXPECT_LT(stt.leakage, 0.2 * sram.leakage);
}

TEST(Scenario, MakeScenarioSwapsTheRightCluster) {
  const auto ref = mm::make_scenario(mm::Scenario::FullSram, pdk45());
  EXPECT_EQ(ref.little.l2.tech, mm::MemTech::Sram);
  EXPECT_EQ(ref.big.l2.tech, mm::MemTech::Sram);

  const auto little = mm::make_scenario(mm::Scenario::LittleL2Stt, pdk45());
  EXPECT_EQ(little.little.l2.tech, mm::MemTech::SttMram);
  EXPECT_EQ(little.big.l2.tech, mm::MemTech::Sram);
  // Iso-area: 4x the SRAM capacity.
  EXPECT_EQ(little.little.l2.capacity_bytes,
            4 * ref.little.l2.capacity_bytes);

  const auto big = mm::make_scenario(mm::Scenario::BigL2Stt, pdk45());
  EXPECT_EQ(big.little.l2.tech, mm::MemTech::Sram);
  EXPECT_EQ(big.big.l2.tech, mm::MemTech::SttMram);

  const auto full = mm::make_scenario(mm::Scenario::FullL2Stt, pdk45());
  EXPECT_EQ(full.little.l2.tech, mm::MemTech::SttMram);
  EXPECT_EQ(full.big.l2.tech, mm::MemTech::SttMram);
}

TEST(Scenario, EnergyRollupHasAllComponents) {
  auto k = mm::kernel_by_name("bodytrack");
  k.instructions = 50'000;
  const auto sys = mm::make_scenario(mm::Scenario::FullSram, pdk45());
  const auto rep = mm::simulate(sys, k);
  const auto e = mm::energy_rollup(sys, rep);
  EXPECT_GT(e.total(), 0.0);
  EXPECT_GT(e.edp(), 0.0);
  EXPECT_NO_THROW((void)e.component("LITTLE cores"));
  EXPECT_NO_THROW((void)e.component("big cores"));
  EXPECT_NO_THROW((void)e.component("LITTLE L2 (SRAM)"));
  EXPECT_NO_THROW((void)e.component("DRAM + MC"));
  EXPECT_THROW((void)e.component("GPU"), std::out_of_range);
  for (const auto& c : e.components) {
    EXPECT_GE(c.dynamic, 0.0) << c.name;
    EXPECT_GE(c.leakage, 0.0) << c.name;
  }
}

TEST(Scenario, SttScenariosSaveEnergy) {
  // The paper: "the overall energy consumption is improved in all
  // scenarios" (for the STT-L2 configurations).
  auto k = mm::kernel_by_name("bodytrack");
  k.instructions = 60'000;
  const auto runs = mm::run_scenario_sweep({k}, pdk45());
  ASSERT_EQ(runs.size(), 4u);
  const auto& ref = runs[0];
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const auto m = mm::normalize(ref, runs[i]);
    EXPECT_LT(m.energy_ratio, 1.0) << mm::to_string(runs[i].scenario);
  }
  // Full-L2-STT kills the most leakage: best energy ratio.
  const auto full = mm::normalize(ref, runs[3]);
  const auto little = mm::normalize(ref, runs[1]);
  EXPECT_LT(full.energy_ratio, little.energy_ratio);
}

TEST(Scenario, LittleL2SttReducesExecTimeForCacheHungryKernel) {
  // The paper: "Only the scenario with STT-MRAM in the L2 cache of the
  // LITTLE cluster reduces the execution time".
  auto k = mm::kernel_by_name("bodytrack");
  k.instructions = 60'000;
  const auto runs = mm::run_scenario_sweep({k}, pdk45());
  const auto little = mm::normalize(runs[0], runs[1]);
  EXPECT_LT(little.exec_time_ratio, 1.0);
  // And the EDP improves.
  EXPECT_LT(little.edp_ratio, 1.0);
}

TEST(Scenario, BigL2SttDoesNotSpeedUp) {
  auto k = mm::kernel_by_name("fluidanimate"); // write-heavy
  k.instructions = 60'000;
  const auto runs = mm::run_scenario_sweep({k}, pdk45());
  const auto big = mm::normalize(runs[0], runs[2]);
  EXPECT_GE(big.exec_time_ratio, 0.999);
}

TEST(Scenario, SweepIsKernelMajorAndBitIdenticalForAnyThreadCount) {
  std::vector<mm::KernelParams> kernels = {mm::kernel_by_name("bodytrack"),
                                           mm::kernel_by_name("x264")};
  for (auto& k : kernels) k.instructions = 20'000;

  mm::SweepOptions serial;
  serial.threads = 1;
  auto pooled = serial;
  pooled.threads = 8;
  const auto a = mm::run_scenario_sweep(kernels, pdk45(), serial);
  const auto b = mm::run_scenario_sweep(kernels, pdk45(), pooled);
  ASSERT_EQ(a.size(), 8u); // 2 kernels x 4 scenarios
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].scenario, b[i].scenario);
    EXPECT_EQ(a[i].activity.kernel, b[i].activity.kernel);
    EXPECT_EQ(a[i].activity.exec_time, b[i].activity.exec_time); // bit-equal
    EXPECT_EQ(a[i].energy.total(), b[i].energy.total());
  }
  // Kernel-major with the scenarios in presentation order.
  EXPECT_EQ(a[0].activity.kernel, "bodytrack");
  EXPECT_EQ(a[0].scenario, mm::Scenario::FullSram);
  EXPECT_EQ(a[3].scenario, mm::Scenario::FullL2Stt);
  EXPECT_EQ(a[4].activity.kernel, "x264");

  // A one-kernel sweep is a slice of the two-kernel sweep.
  const auto solo = mm::run_scenario_sweep({kernels[0]}, pdk45());
  ASSERT_EQ(solo.size(), 4u);
  EXPECT_EQ(solo[1].activity.exec_time, a[1].activity.exec_time);
  EXPECT_EQ(solo[1].energy.total(), a[1].energy.total());

  // The crossed space mirrors the result layout.
  const auto space = mm::scenario_space(kernels);
  EXPECT_EQ(space.size(), a.size());
  EXPECT_EQ(space.at(5).str("kernel"), "x264");
  EXPECT_EQ(space.at(5).str("scenario"), "LITTLE-L2-STT-MRAM");
}

TEST(Scenario, NormalizedTableHasSttRowsOnly) {
  auto k = mm::kernel_by_name("bodytrack");
  k.instructions = 20'000;
  const auto runs = mm::run_scenario_sweep({k}, pdk45());
  const auto t = mm::normalized_table(runs);
  ASSERT_EQ(t.rows(), 3u); // three STT scenarios vs the reference
  for (std::size_t r = 0; r < t.rows(); ++r) {
    EXPECT_EQ(std::get<std::string>(t.at(r, "kernel")), "bodytrack");
    EXPECT_GT(t.number(r, "energy_ratio"), 0.0);
    EXPECT_GT(t.number(r, "edp_ratio"), 0.0);
  }
}

TEST(Scenario, NamesAreStable) {
  EXPECT_STREQ(mm::to_string(mm::Scenario::FullSram), "Full-SRAM");
  EXPECT_STREQ(mm::to_string(mm::Scenario::LittleL2Stt),
               "LITTLE-L2-STT-MRAM");
  EXPECT_EQ(mm::all_scenarios().size(), 4u);
}
