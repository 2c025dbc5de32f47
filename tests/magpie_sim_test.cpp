// Tests of the trace-driven performance simulation (gem5 substitute).
#include "magpie/sim.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "magpie/scenario.hpp"

namespace mm = mss::magpie;

namespace {
mm::KernelParams small_kernel(const char* name = "swaptions") {
  auto k = mm::kernel_by_name(name);
  k.instructions = 50'000; // keep unit tests fast
  return k;
}
} // namespace

TEST(Sim, ActivityCountsAreConsistent) {
  const auto sys = mm::SystemConfig::reference_full_sram();
  const auto rep = mm::simulate(sys, small_kernel());
  // Every generated reference hits the L1s exactly once.
  const auto k = small_kernel();
  const auto expected_refs =
      std::uint64_t(double(k.instructions) * k.mem_ratio) * sys.little.n_cores;
  EXPECT_EQ(rep.little.l1_accesses, expected_refs);
  EXPECT_EQ(rep.big.l1_accesses, expected_refs);
  // L2 sees at least the L1 misses (plus writebacks).
  EXPECT_GE(rep.little.l2_accesses, rep.little.l1_misses);
  // Times are positive and the report takes the max.
  EXPECT_GT(rep.little.time, 0.0);
  EXPECT_GT(rep.big.time, 0.0);
  EXPECT_EQ(rep.exec_time, std::max(rep.little.time, rep.big.time));
}

TEST(Sim, IpcBoundedByBaseIpc) {
  const auto sys = mm::SystemConfig::reference_full_sram();
  const auto rep = mm::simulate(sys, small_kernel());
  EXPECT_LE(rep.little.ipc, sys.little.core.base_ipc + 1e-9);
  EXPECT_LE(rep.big.ipc, sys.big.core.base_ipc + 1e-9);
  EXPECT_GT(rep.little.ipc, 0.0);
}

TEST(Sim, DeterministicPerSeed) {
  const auto sys = mm::SystemConfig::reference_full_sram();
  const auto a = mm::simulate(sys, small_kernel(), 1);
  const auto b = mm::simulate(sys, small_kernel(), 1);
  const auto c = mm::simulate(sys, small_kernel(), 2);
  EXPECT_EQ(a.exec_time, b.exec_time);
  EXPECT_EQ(a.little.l2_misses, b.little.l2_misses);
  EXPECT_NE(a.little.l2_misses, c.little.l2_misses);
}

TEST(Sim, BiggerL2ReducesMissesForCacheHungryKernel) {
  auto sys = mm::SystemConfig::reference_full_sram();
  const auto k = small_kernel("bodytrack");
  const auto base = mm::simulate(sys, k);
  auto sys_big_l2 = sys;
  sys_big_l2.little.l2.capacity_bytes *= 4;
  const auto boosted = mm::simulate(sys_big_l2, k);
  EXPECT_LT(boosted.little.l2_misses, base.little.l2_misses);
  EXPECT_LE(boosted.little.time, base.little.time * 1.001);
}

TEST(Sim, SlowerL2WriteLatencyHurtsWriteHeavyKernel) {
  auto sys = mm::SystemConfig::reference_full_sram();
  const auto k = small_kernel("fluidanimate");
  const auto base = mm::simulate(sys, k);
  auto sys_slow_wr = sys;
  sys_slow_wr.big.l2.write_latency *= 8.0;
  const auto slowed = mm::simulate(sys_slow_wr, k);
  EXPECT_GT(slowed.big.time, base.big.time);
}

TEST(Sim, LittleClusterIsTheBottleneck) {
  // In-order 1.2 GHz LITTLE cores vs OoO 1.6 GHz big cores: the LITTLE
  // cluster finishes last in the reference configuration — this is what
  // makes the LITTLE-L2 upgrade matter for total execution time.
  const auto sys = mm::SystemConfig::reference_full_sram();
  for (const char* name : {"bodytrack", "ferret", "x264"}) {
    const auto rep = mm::simulate(sys, small_kernel(name));
    EXPECT_GT(rep.little.time, rep.big.time) << name;
  }
}

TEST(Sim, StreamingKernelInsensitiveToL2Capacity) {
  auto sys = mm::SystemConfig::reference_full_sram();
  const auto k = small_kernel("streamcluster");
  const auto base = mm::simulate(sys, k);
  auto sys_big_l2 = sys;
  sys_big_l2.little.l2.capacity_bytes *= 4;
  const auto boosted = mm::simulate(sys_big_l2, k);
  // Misses shrink by far less than for the cache-hungry kernel.
  const double ratio =
      double(boosted.little.l2_misses) / double(base.little.l2_misses);
  EXPECT_GT(ratio, 0.6);
}

// Golden activity reports, pinned exactly (doubles as hexfloat literals):
// every ClusterActivity counter and every time/IPC of simulate() for all
// nine kernels x the four scenario platforms at 20'000 instructions per
// thread, plus one full-size point. A change to the trace generator, the
// cache replacement or the timing roll-up fails here, where
// paper_golden_test's relative tolerance would let a small drift through.
namespace {

struct PinnedCluster {
  std::uint64_t instructions, l1_accesses, l1_misses, l2_accesses,
      l2_misses, l2_writes, dram_accesses;
  double time, ipc;
};

struct PinnedRun {
  const char* kernel;
  int scenario; ///< index into mm::all_scenarios()
  PinnedCluster little, big;
  double exec_time;
};

// clang-format off
const PinnedRun kPinnedSmall[] = {
    {"blackscholes", 0,
     {80000, 16000, 1433, 1433, 665, 0, 665, 0x1.2b71cc86e00aap-15, 0x1.de1a94e117106p-2},
     {80000, 16000, 1438, 1438, 670, 0, 670, 0x1.02e83d81527bap-16, 0x1.9eb882d219d26p-1},
     0x1.2b71cc86e00aap-15},
    {"blackscholes", 1,
     {80000, 16000, 1433, 1433, 665, 0, 665, 0x1.28d2573d6a49fp-15, 0x1.e254210c58bc4p-2},
     {80000, 16000, 1438, 1438, 670, 0, 670, 0x1.02e83d81527bap-16, 0x1.9eb882d219d26p-1},
     0x1.28d2573d6a49fp-15},
    {"blackscholes", 2,
     {80000, 16000, 1433, 1433, 665, 0, 665, 0x1.2b71cc86e00aap-15, 0x1.de1a94e117106p-2},
     {80000, 16000, 1438, 1438, 670, 0, 670, 0x1.fd2935cbb9acap-17, 0x1.a5c4e3720488fp-1},
     0x1.2b71cc86e00aap-15},
    {"blackscholes", 3,
     {80000, 16000, 1433, 1433, 665, 0, 665, 0x1.28d2573d6a49fp-15, 0x1.e254210c58bc4p-2},
     {80000, 16000, 1438, 1438, 670, 0, 670, 0x1.fd2935cbb9acap-17, 0x1.a5c4e3720488fp-1},
     0x1.28d2573d6a49fp-15},
    {"bodytrack", 0,
     {80000, 24000, 16853, 22246, 7039, 5581, 7227, 0x1.5424108958397p-13, 0x1.a4e69c97ac2f1p-4},
     {80000, 24000, 16769, 22148, 6886, 5379, 6886, 0x1.5802bce17454ap-14, 0x1.381fe2591467ep-3},
     0x1.5424108958397p-13},
    {"bodytrack", 1,
     {80000, 24000, 16853, 22246, 7008, 5394, 7009, 0x1.5e221d9353c0dp-13, 0x1.98e3899b4c86p-4},
     {80000, 24000, 16769, 22148, 6886, 5379, 6886, 0x1.5802bce17454ap-14, 0x1.381fe2591467ep-3},
     0x1.5e221d9353c0dp-13},
    {"bodytrack", 2,
     {80000, 24000, 16853, 22246, 7039, 5581, 7227, 0x1.5424108958397p-13, 0x1.a4e69c97ac2f1p-4},
     {80000, 24000, 16769, 22148, 6886, 5379, 6886, 0x1.5f2e2cbc525fap-14, 0x1.31c0925a09872p-3},
     0x1.5424108958397p-13},
    {"bodytrack", 3,
     {80000, 24000, 16853, 22246, 7008, 5394, 7009, 0x1.5e221d9353c0dp-13, 0x1.98e3899b4c86p-4},
     {80000, 24000, 16769, 22148, 6886, 5379, 6886, 0x1.5f2e2cbc525fap-14, 0x1.31c0925a09872p-3},
     0x1.5e221d9353c0dp-13},
    {"canneal", 0,
     {80000, 28000, 17137, 20259, 10327, 3608, 10813, 0x1.cdfdf9c04c99dp-13, 0x1.35e3337ea0fd6p-4},
     {80000, 28000, 17081, 20199, 10236, 3118, 10236, 0x1.e3f34b74ce3f4p-14, 0x1.bbbd8f74cb96p-4},
     0x1.cdfdf9c04c99dp-13},
    {"canneal", 1,
     {80000, 28000, 17137, 20259, 10265, 3129, 10272, 0x1.cf53912ffa3bep-13, 0x1.34febbdbd54e5p-4},
     {80000, 28000, 17081, 20199, 10236, 3118, 10236, 0x1.e3f34b74ce3f4p-14, 0x1.bbbd8f74cb96p-4},
     0x1.cf53912ffa3bep-13},
    {"canneal", 2,
     {80000, 28000, 17137, 20259, 10327, 3608, 10813, 0x1.cdfdf9c04c99dp-13, 0x1.35e3337ea0fd6p-4},
     {80000, 28000, 17081, 20199, 10236, 3118, 10236, 0x1.e24ea8f8c61f4p-14, 0x1.bd408f5019ecep-4},
     0x1.cdfdf9c04c99dp-13},
    {"canneal", 3,
     {80000, 28000, 17137, 20259, 10265, 3129, 10272, 0x1.cf53912ffa3bep-13, 0x1.34febbdbd54e5p-4},
     {80000, 28000, 17081, 20199, 10236, 3118, 10236, 0x1.e24ea8f8c61f4p-14, 0x1.bd408f5019ecep-4},
     0x1.cf53912ffa3bep-13},
    {"ferret", 0,
     {80000, 22400, 13049, 16230, 3653, 3185, 3657, 0x1.9ede706af7a51p-14, 0x1.5916180cf848fp-3},
     {80000, 22400, 12957, 16071, 3684, 3114, 3684, 0x1.a03fed6e84ee3p-15, 0x1.01f4c783809e7p-2},
     0x1.9ede706af7a51p-14},
    {"ferret", 1,
     {80000, 22400, 13049, 16230, 3651, 3181, 3651, 0x1.a862682f7bcafp-14, 0x1.51594c253f1f8p-3},
     {80000, 22400, 12957, 16071, 3684, 3114, 3684, 0x1.a03fed6e84ee3p-15, 0x1.01f4c783809e7p-2},
     0x1.a862682f7bcafp-14},
    {"ferret", 2,
     {80000, 22400, 13049, 16230, 3653, 3185, 3657, 0x1.9ede706af7a51p-14, 0x1.5916180cf848fp-3},
     {80000, 22400, 12957, 16071, 3684, 3114, 3684, 0x1.a3c4166d1f035p-15, 0x1.ff973815b5368p-3},
     0x1.9ede706af7a51p-14},
    {"ferret", 3,
     {80000, 22400, 13049, 16230, 3651, 3181, 3651, 0x1.a862682f7bcafp-14, 0x1.51594c253f1f8p-3},
     {80000, 22400, 12957, 16071, 3684, 3114, 3684, 0x1.a3c4166d1f035p-15, 0x1.ff973815b5368p-3},
     0x1.a862682f7bcafp-14},
    {"fluidanimate", 0,
     {80000, 25600, 14620, 21719, 4410, 7140, 4451, 0x1.e2254a4aa39d6p-14, 0x1.28ef2d113e0d4p-3},
     {80000, 25600, 14557, 21608, 4358, 7051, 4358, 0x1.dc97dcbcd6a32p-15, 0x1.c29729ca00d38p-3},
     0x1.e2254a4aa39d6p-14},
    {"fluidanimate", 1,
     {80000, 25600, 14620, 21719, 4408, 7099, 4408, 0x1.0348891b68923p-13, 0x1.1414533e445a9p-3},
     {80000, 25600, 14557, 21608, 4358, 7051, 4358, 0x1.dc97dcbcd6a32p-15, 0x1.c29729ca00d38p-3},
     0x1.0348891b68923p-13},
    {"fluidanimate", 2,
     {80000, 25600, 14620, 21719, 4410, 7140, 4451, 0x1.e2254a4aa39d6p-14, 0x1.28ef2d113e0d4p-3},
     {80000, 25600, 14557, 21608, 4358, 7051, 4358, 0x1.fb3d3c6331abep-15, 0x1.a75df6fa4053cp-3},
     0x1.e2254a4aa39d6p-14},
    {"fluidanimate", 3,
     {80000, 25600, 14620, 21719, 4408, 7099, 4408, 0x1.0348891b68923p-13, 0x1.1414533e445a9p-3},
     {80000, 25600, 14557, 21608, 4358, 7051, 4358, 0x1.fb3d3c6331abep-15, 0x1.a75df6fa4053cp-3},
     0x1.0348891b68923p-13},
    {"freqmine", 0,
     {80000, 24000, 16149, 19838, 6654, 3782, 6747, 0x1.42a9be20b682fp-13, 0x1.bbb32eba294fap-4},
     {80000, 24000, 16109, 19747, 6553, 3638, 6553, 0x1.4b8dc72f9c354p-14, 0x1.43d9f80129e06p-3},
     0x1.42a9be20b682fp-13},
    {"freqmine", 1,
     {80000, 24000, 16149, 19838, 6646, 3689, 6646, 0x1.47a79d17e5de8p-13, 0x1.b4f0baa8b5719p-4},
     {80000, 24000, 16109, 19747, 6553, 3638, 6553, 0x1.4b8dc72f9c354p-14, 0x1.43d9f80129e06p-3},
     0x1.47a79d17e5de8p-13},
    {"freqmine", 2,
     {80000, 24000, 16149, 19838, 6654, 3782, 6747, 0x1.42a9be20b682fp-13, 0x1.bbb32eba294fap-4},
     {80000, 24000, 16109, 19747, 6553, 3638, 6553, 0x1.4cfcf50f7edfp-14, 0x1.4274dd48ed7a8p-3},
     0x1.42a9be20b682fp-13},
    {"freqmine", 3,
     {80000, 24000, 16149, 19838, 6646, 3689, 6646, 0x1.47a79d17e5de8p-13, 0x1.b4f0baa8b5719p-4},
     {80000, 24000, 16109, 19747, 6553, 3638, 6553, 0x1.4cfcf50f7edfp-14, 0x1.4274dd48ed7a8p-3},
     0x1.47a79d17e5de8p-13},
    {"streamcluster", 0,
     {80000, 28000, 9692, 11481, 3587, 1789, 3587, 0x1.857ae1983e067p-14, 0x1.6f94d1c45385fp-3},
     {80000, 28000, 9615, 11349, 3577, 1734, 3577, 0x1.845bd27d2b31cp-15, 0x1.147b63f5fded3p-2},
     0x1.857ae1983e067p-14},
    {"streamcluster", 1,
     {80000, 28000, 9692, 11481, 3587, 1789, 3587, 0x1.886f239d7b6cbp-14, 0x1.6cd0748a9a73cp-3},
     {80000, 28000, 9615, 11349, 3577, 1734, 3577, 0x1.845bd27d2b31cp-15, 0x1.147b63f5fded3p-2},
     0x1.886f239d7b6cbp-14},
    {"streamcluster", 2,
     {80000, 28000, 9692, 11481, 3587, 1789, 3587, 0x1.857ae1983e067p-14, 0x1.6f94d1c45385fp-3},
     {80000, 28000, 9615, 11349, 3577, 1734, 3577, 0x1.82a8bba5c69c4p-15, 0x1.15b280a9dbb07p-2},
     0x1.857ae1983e067p-14},
    {"streamcluster", 3,
     {80000, 28000, 9692, 11481, 3587, 1789, 3587, 0x1.886f239d7b6cbp-14, 0x1.6cd0748a9a73cp-3},
     {80000, 28000, 9615, 11349, 3577, 1734, 3577, 0x1.82a8bba5c69c4p-15, 0x1.15b280a9dbb07p-2},
     0x1.886f239d7b6cbp-14},
    {"swaptions", 0,
     {80000, 14400, 3248, 3866, 875, 618, 875, 0x1.573a96ff5885ep-15, 0x1.a11d313902623p-2},
     {80000, 14400, 3295, 3912, 892, 617, 892, 0x1.3a37cacf80a04p-16, 0x1.55b8046f64817p-1},
     0x1.573a96ff5885ep-15},
    {"swaptions", 1,
     {80000, 14400, 3248, 3866, 875, 618, 875, 0x1.59a6608ed4558p-15, 0x1.9e314318f1f2p-2},
     {80000, 14400, 3295, 3912, 892, 617, 892, 0x1.3a37cacf80a04p-16, 0x1.55b8046f64817p-1},
     0x1.59a6608ed4558p-15},
    {"swaptions", 2,
     {80000, 14400, 3248, 3866, 875, 618, 875, 0x1.573a96ff5885ep-15, 0x1.a11d313902623p-2},
     {80000, 14400, 3295, 3912, 892, 617, 892, 0x1.39a053c6363c8p-16, 0x1.565d0cade0d93p-1},
     0x1.573a96ff5885ep-15},
    {"swaptions", 3,
     {80000, 14400, 3248, 3866, 875, 618, 875, 0x1.59a6608ed4558p-15, 0x1.9e314318f1f2p-2},
     {80000, 14400, 3295, 3912, 892, 617, 892, 0x1.39a053c6363c8p-16, 0x1.565d0cade0d93p-1},
     0x1.59a6608ed4558p-15},
    {"x264", 0,
     {80000, 20000, 11623, 15902, 4433, 4309, 4463, 0x1.d8b19468342abp-14, 0x1.2edf2d6680f4ap-3},
     {80000, 20000, 11490, 15748, 4338, 4258, 4338, 0x1.cbf5b4ea016dp-15, 0x1.d2e294b0e1cd9p-3},
     0x1.d8b19468342abp-14},
    {"x264", 1,
     {80000, 20000, 11623, 15902, 4429, 4279, 4429, 0x1.ecb2930c414acp-14, 0x1.2293311670a1dp-3},
     {80000, 20000, 11490, 15748, 4338, 4258, 4338, 0x1.cbf5b4ea016dp-15, 0x1.d2e294b0e1cd9p-3},
     0x1.ecb2930c414acp-14},
    {"x264", 2,
     {80000, 20000, 11623, 15902, 4433, 4309, 4463, 0x1.d8b19468342abp-14, 0x1.2edf2d6680f4ap-3},
     {80000, 20000, 11490, 15748, 4338, 4258, 4338, 0x1.daf76128266e8p-15, 0x1.c42245863dbb7p-3},
     0x1.d8b19468342abp-14},
    {"x264", 3,
     {80000, 20000, 11623, 15902, 4429, 4279, 4429, 0x1.ecb2930c414acp-14, 0x1.2293311670a1dp-3},
     {80000, 20000, 11490, 15748, 4338, 4258, 4338, 0x1.daf76128266e8p-15, 0x1.c42245863dbb7p-3},
     0x1.ecb2930c414acp-14},
};

const PinnedRun kPinnedFull =
    {"bodytrack", 1,
     {2000000, 600000, 410882, 562016, 47425, 162984, 59275, 0x1.e3d3b304f124p-10, 0x1.ce58fa2600266p-3},
     {2000000, 600000, 411064, 562055, 46757, 160084, 55850, 0x1.aef1d8d616166p-11, 0x1.854fff57b3411p-2},
     0x1.e3d3b304f124p-10};
// clang-format on

void expect_cluster(const mm::ClusterActivity& a, const PinnedCluster& p,
                    const std::string& where) {
  EXPECT_EQ(a.instructions, p.instructions) << where;
  EXPECT_EQ(a.l1_accesses, p.l1_accesses) << where;
  EXPECT_EQ(a.l1_misses, p.l1_misses) << where;
  EXPECT_EQ(a.l2_accesses, p.l2_accesses) << where;
  EXPECT_EQ(a.l2_misses, p.l2_misses) << where;
  EXPECT_EQ(a.l2_writes, p.l2_writes) << where;
  EXPECT_EQ(a.dram_accesses, p.dram_accesses) << where;
  EXPECT_EQ(a.time, p.time) << where;
  EXPECT_EQ(a.ipc, p.ipc) << where;
}

void expect_run(const mm::ActivityReport& r, const PinnedRun& p) {
  const std::string where =
      std::string(p.kernel) + " / scenario " + std::to_string(p.scenario);
  expect_cluster(r.little, p.little, where + " LITTLE");
  expect_cluster(r.big, p.big, where + " big");
  EXPECT_EQ(r.exec_time, p.exec_time) << where;
}

} // namespace

TEST(MagpieGolden, SimulatePinned) {
  const auto pdk = mss::core::Pdk::mss45();
  std::vector<mm::SystemConfig> platforms;
  for (const auto s : mm::all_scenarios()) {
    platforms.push_back(mm::make_scenario(s, pdk));
  }
  std::size_t i = 0;
  for (auto k : mm::parsec_kernels()) {
    k.instructions = 20'000;
    for (std::size_t s = 0; s < platforms.size(); ++s, ++i) {
      ASSERT_LT(i, std::size(kPinnedSmall));
      const PinnedRun& p = kPinnedSmall[i];
      ASSERT_EQ(k.name, p.kernel);
      ASSERT_EQ(int(s), p.scenario);
      expect_run(mm::simulate(platforms[s], k), p);
    }
  }
  EXPECT_EQ(i, std::size(kPinnedSmall));

  const PinnedRun& p = kPinnedFull;
  expect_run(mm::simulate(platforms[std::size_t(p.scenario)],
                          mm::kernel_by_name(p.kernel)),
             p);
}
