// Parameterised property-style sweeps over model invariants
// (TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <cmath>
#include <gtest/gtest.h>

#include "core/compact_model.hpp"
#include "core/pdk.hpp"
#include "core/sensor_model.hpp"
#include "magpie/cache.hpp"
#include "math/special.hpp"
#include "physics/thermal.hpp"
#include "util/math.hpp"
#include "vaet/ecc.hpp"

// ---------------------------------------------------------------------------
// WER is monotone non-increasing in pulse width for any overdrive.
class WerMonotoneP : public ::testing::TestWithParam<double> {};

TEST_P(WerMonotoneP, WerDecreasesWithPulseWidth) {
  mss::physics::SwitchingParams sp;
  sp.delta = 55.0;
  sp.ic0 = 35e-6;
  sp.alpha = 0.015;
  sp.hk_eff = 2.0e5;
  const double overdrive = GetParam();
  double prev = 0.0; // log WER at t=0 is 0 (WER=1)
  for (double t = 0.2e-9; t < 40e-9; t *= 1.4) {
    const double lw = mss::physics::log_write_error_rate(sp, overdrive, t);
    EXPECT_LE(lw, prev + 1e-12) << "overdrive=" << overdrive << " t=" << t;
    prev = lw;
  }
}

INSTANTIATE_TEST_SUITE_P(Overdrives, WerMonotoneP,
                         ::testing::Values(1.2, 1.5, 2.0, 2.5, 3.0, 4.0));

// ---------------------------------------------------------------------------
// Resistance is positive and AP > P for any bias in the operating range.
class ResistanceP : public ::testing::TestWithParam<double> {};

TEST_P(ResistanceP, OrderedAndPositive) {
  const mss::core::MtjCompactModel m{mss::core::MtjParams{}};
  const double v = GetParam();
  const double rp = m.resistance(mss::core::MtjState::Parallel, v);
  const double rap = m.resistance(mss::core::MtjState::Antiparallel, v);
  EXPECT_GT(rp, 0.0);
  EXPECT_GT(rap, rp);
  // Conductance-angle interpolation stays within [G_P, G_AP].
  for (double c = -1.0; c <= 1.0; c += 0.25) {
    const double g = m.conductance_at_angle(c, v);
    EXPECT_GE(g, 1.0 / rap - 1e-12);
    EXPECT_LE(g, 1.0 / rp + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(BiasSweep, ResistanceP,
                         ::testing::Values(0.0, 0.1, 0.2, 0.4, 0.6, 0.9, 1.2));

// ---------------------------------------------------------------------------
// Sensor transfer is odd-symmetric and monotone for any legal bias ratio.
class SensorBiasP : public ::testing::TestWithParam<double> {};

TEST_P(SensorBiasP, TransferMonotoneAndOdd) {
  mss::core::MtjParams p;
  p.diameter = 80e-9;
  const mss::core::SensorModel s(p, GetParam() * p.hk_eff());
  const double range = s.characteristics().linear_range_am;
  double prev = s.mz(-2.0 * range);
  for (double h = -1.5 * range; h <= 1.5 * range; h += 0.25 * range) {
    const double m = s.mz(h);
    EXPECT_GE(m, prev - 1e-12);
    prev = m;
    EXPECT_NEAR(s.mz(h) + s.mz(-h), 0.0, 1e-9); // odd symmetry
  }
}

INSTANTIATE_TEST_SUITE_P(BiasRatios, SensorBiasP,
                         ::testing::Values(1.05, 1.2, 1.3, 1.5, 2.0, 3.0));

// ---------------------------------------------------------------------------
// ECC: allowed raw BER grows with correction capability for any word size.
class EccWordP : public ::testing::TestWithParam<unsigned> {};

TEST_P(EccWordP, AllowedBerMonotoneInT) {
  mss::vaet::EccScheme s;
  s.data_bits = GetParam();
  double prev = -1e18;
  for (unsigned t = 0; t <= 4; ++t) {
    s.t_correct = t;
    const double lp = mss::vaet::allowed_log_p_bit(s, std::log(1e-15));
    EXPECT_GT(lp, prev) << "word=" << GetParam() << " t=" << t;
    prev = lp;
  }
}

INSTANTIATE_TEST_SUITE_P(WordSizes, EccWordP,
                         ::testing::Values(64u, 128u, 256u, 512u, 1024u));

// ---------------------------------------------------------------------------
// Cache: miss rate is non-increasing in capacity for a fixed working set.
class CacheCapacityP
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(CacheCapacityP, MoreCapacityNeverHurts) {
  const auto [cap_small, cap_large] = GetParam();
  auto run = [](std::size_t cap) {
    mss::magpie::Cache c(cap, 8, 64, nullptr);
    std::uint64_t x = 0x2545F4914F6CDD1Dull;
    for (int i = 0; i < 100000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      (void)c.access(x % (256 * 1024), false);
    }
    return c.stats().miss_rate();
  };
  EXPECT_GE(run(cap_small), run(cap_large) - 0.005);
}

INSTANTIATE_TEST_SUITE_P(
    CapacityPairs, CacheCapacityP,
    ::testing::Values(std::make_pair(std::size_t{8} << 10, std::size_t{32} << 10),
                      std::make_pair(std::size_t{32} << 10, std::size_t{128} << 10),
                      std::make_pair(std::size_t{128} << 10, std::size_t{512} << 10)));

// ---------------------------------------------------------------------------
// normal_sf(-inv_normal(q)) == q across many magnitudes, down to the
// 1e-300 deep tail the WER analysis reaches.
class NormalTailP : public ::testing::TestWithParam<double> {};

TEST_P(NormalTailP, SfInvertsProbit) {
  const double q = GetParam();
  const double x = -mss::math::inv_normal(q);
  EXPECT_NEAR(std::log(mss::util::normal_sf(x)), std::log(q), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(TailTargets, NormalTailP,
                         ::testing::Values(1e-2, 1e-5, 1e-8, 1e-12, 1e-16,
                                           1e-24, 1e-40, 1e-80, 1e-160,
                                           1e-300));

// ---------------------------------------------------------------------------
// PDK device sampling preserves physical validity across nodes and seeds.
class PdkSampleP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PdkSampleP, SampledDevicesStayPhysical) {
  for (const auto node : {mss::core::TechNode::N45, mss::core::TechNode::N65}) {
    const auto pdk = mss::core::Pdk::for_node(node);
    mss::util::Rng rng(GetParam());
    for (int i = 0; i < 500; ++i) {
      const auto dev = pdk.sample_device(rng);
      EXPECT_NO_THROW(dev.validate());
      EXPECT_GT(dev.delta(), 5.0);
      EXPECT_GT(dev.ic0(), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PdkSampleP,
                         ::testing::Values(1ull, 17ull, 923ull, 31337ull));
