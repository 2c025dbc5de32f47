// Tests of the peripheral standard cells: sense amplifier, write driver,
// non-volatile flip-flop and the MSS programmable current source.
#include <gtest/gtest.h>

#include "cells/current_source.hpp"
#include "cells/nvff.hpp"
#include "cells/sense_amp.hpp"
#include "cells/write_driver.hpp"

namespace mc = mss::cells;

TEST(SenseAmp, ResolvesBothPolarities) {
  const mc::SenseAmp sa{mss::core::Pdk::mss45()};
  const auto hi = sa.resolve(0.65, 0.55);
  EXPECT_TRUE(hi.resolved);
  EXPECT_TRUE(hi.decision_correct);
  EXPECT_GT(hi.t_resolve, 0.0);
  EXPECT_LT(hi.t_resolve, 2e-9);

  const auto lo = sa.resolve(0.55, 0.65);
  EXPECT_TRUE(lo.resolved);
  EXPECT_TRUE(lo.decision_correct);
}

TEST(SenseAmp, LargerImbalanceResolvesFaster) {
  const mc::SenseAmp sa{mss::core::Pdk::mss45()};
  const auto small = sa.resolve(0.62, 0.58);
  const auto large = sa.resolve(0.75, 0.45);
  ASSERT_TRUE(small.resolved);
  ASSERT_TRUE(large.resolved);
  EXPECT_LE(large.t_resolve, small.t_resolve);
}

TEST(SenseAmp, EnergyPerOperationIsFemtojoules) {
  const mc::SenseAmp sa{mss::core::Pdk::mss45()};
  const auto r = sa.resolve(0.65, 0.55);
  EXPECT_GT(r.energy, 1e-16);
  EXPECT_LT(r.energy, 1e-12);
}

TEST(SenseAmp, MinResolvableImbalanceIsSmall) {
  const mc::SenseAmp sa{mss::core::Pdk::mss45()};
  // Resolves a 100 mV imbalance correctly within 1.5 ns.
  const auto r = sa.resolve(0.65, 0.55);
  ASSERT_TRUE(r.resolved);
  EXPECT_TRUE(r.decision_correct);
  EXPECT_LE(r.t_resolve, 1.5e-9);
}

TEST(WriteDriver, DelaysScaleWithLoad) {
  const auto pdk = mss::core::Pdk::mss45();
  mc::WriteDriverOptions light;
  light.c_load = 20e-15;
  mc::WriteDriverOptions heavy;
  heavy.c_load = 200e-15;
  const auto r_light = mc::WriteDriver(pdk, light).characterize();
  const auto r_heavy = mc::WriteDriver(pdk, heavy).characterize();
  ASSERT_GT(r_light.t_rise, 0.0);
  ASSERT_GT(r_heavy.t_rise, 0.0);
  EXPECT_GT(r_heavy.t_rise, r_light.t_rise);
  EXPECT_GT(r_heavy.energy_cycle, r_light.energy_cycle);
}

TEST(WriteDriver, DriveCurrentSufficientForWrite) {
  const auto pdk = mss::core::Pdk::mss45();
  const auto r = mc::WriteDriver(pdk).characterize();
  // The final stage must comfortably source the MTJ write current.
  EXPECT_GT(r.i_drive, pdk.write_overdrive * pdk.mtj.ic0_p_to_ap());
}

TEST(Nvff, StoresAndRestoresBothValues) {
  const mc::Nvff ff{mss::core::Pdk::mss45()};
  for (const bool bit : {true, false}) {
    const auto r = ff.characterize(bit);
    EXPECT_TRUE(r.store_ok) << "bit=" << bit;
    EXPECT_TRUE(r.restore_ok) << "bit=" << bit;
    EXPECT_GT(r.e_store, 0.0);
    EXPECT_GT(r.t_restore, 0.0);
    EXPECT_LT(r.t_restore, 8e-9);
  }
}

TEST(Nvff, RestoreIsCheaperThanStore) {
  // Store writes two MTJs (expensive); restore only resolves the latch.
  const mc::Nvff ff{mss::core::Pdk::mss45()};
  const auto r = ff.characterize(true);
  EXPECT_LT(r.e_restore, r.e_store);
}

TEST(CurrentSource, LevelsAreMonotonicallyDecreasing) {
  const mc::CurrentSource cs{mss::core::Pdk::mss45()};
  const auto r = cs.characterize();
  ASSERT_EQ(r.levels.size(), 4u); // n_mtj = 3 -> 4 levels
  for (std::size_t k = 1; k < r.levels.size(); ++k) {
    EXPECT_LT(r.levels[k], r.levels[k - 1]) << k;
  }
  EXPECT_GT(r.levels.front(), 1e-6); // microamp-scale reference
  EXPECT_GT(r.tuning_range, 0.1);    // programming actually tunes it
  EXPECT_GT(r.static_power, 0.0);
}
