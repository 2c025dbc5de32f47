// Unit tests for the deterministic RNG.
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace mu = mss::util;

TEST(Rng, DeterministicAcrossInstances) {
  mu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  mu::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  mu::Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, UniformRange) {
  mu::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, UniformU64Bounds) {
  mu::Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(rng.uniform_u64(17), 17u);
  }
  EXPECT_THROW((void)rng.uniform_u64(0), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  mu::Rng rng(13);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sum2 += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, NormalShifted) {
  mu::Rng rng(13);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, LognormalMedian) {
  mu::Rng rng(17);
  std::vector<double> v(20001);
  for (auto& x : v) x = rng.lognormal_median(5.0, 0.3);
  std::sort(v.begin(), v.end());
  EXPECT_NEAR(v[v.size() / 2], 5.0, 0.1);
}

TEST(Rng, BernoulliRate) {
  mu::Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(double(hits) / n, 0.3, 0.01);
}

// BernoulliTrial is the integer form of bernoulli(): same outcome, same
// single draw, for every p (edges included) and at the exact boundary
// where the draw equals p.
TEST(Rng, BernoulliTrialMatchesBernoulli) {
  const double inf = std::numeric_limits<double>::infinity();
  const double probs[] = {0.0,
                          -0.0,
                          -0.5,
                          -inf,
                          std::nan(""),
                          std::numeric_limits<double>::denorm_min(),
                          0x1.0p-53,
                          0x1.8p-53,
                          0.3,
                          std::nextafter(0.3, 0.0),
                          0.5,
                          0.88,
                          1.0 - 0x1.0p-53,
                          1.0,
                          1.5,
                          inf};
  for (const double p : probs) {
    const mu::BernoulliTrial trial(p);
    mu::Rng a(31), b(31);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(trial(a), b.bernoulli(p)) << "p = " << p << ", draw " << i;
    }
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "p = " << p;
  }
  // Boundary: p equal to the draw (false) and one ulp above it (true).
  mu::Rng src(37);
  for (int i = 0; i < 2000; ++i) {
    mu::Rng peek = src;
    const double u = peek.uniform();
    for (const double p : {u, std::nextafter(u, 1.0)}) {
      mu::Rng a = src, b = src;
      EXPECT_EQ(mu::BernoulliTrial(p)(a), b.bernoulli(p)) << "p = " << p;
    }
    (void)src.next_u64();
  }
}

TEST(Rng, ExponentialMean) {
  mu::Rng rng(23);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, NormalTailProbabilities) {
  // The ziggurat's wedge and tail branches must produce the right mass:
  // check P(|z| > t) against the normal survival function.
  mu::Rng rng(29);
  const int n = 400000;
  int over1 = 0, over2 = 0, over3 = 0;
  for (int i = 0; i < n; ++i) {
    const double a = std::abs(rng.normal());
    over1 += a > 1.0;
    over2 += a > 2.0;
    over3 += a > 3.0;
  }
  EXPECT_NEAR(double(over1) / n, 0.3173, 0.005);
  EXPECT_NEAR(double(over2) / n, 0.0455, 0.002);
  EXPECT_NEAR(double(over3) / n, 0.0027, 0.0006);
}

// ------------------------------------------------- pinned normal sequence

namespace {

// Bit pattern of a double, for exact sequence digests.
std::uint64_t bits_of(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

} // namespace

TEST(Rng, NormalSequencePinned) {
  // Every stochastic golden in the library sits on top of normal(); this
  // pins its exact output so that a rewrite of the ziggurat (fast path or
  // slow path) must stay bit-identical.
  static constexpr double kFirst64[64] = {
      -0x1.8d2e0b227603bp+0, 0x1.d287c820d3bedp+0, -0x1.6040b9f3b92fep+0,
      -0x1.27638100cb845p-1, -0x1.06cc2c7ea40cep+0, 0x1.ac00595f82f63p+0,
      0x1.2b9ee93d077fbp-1, 0x1.d761fe13d964dp-1, 0x1.832951c04d989p-2,
      -0x1.883d37f84353p+0, -0x1.5e3ea75b8f968p+0, -0x1.07e8cfc1cbdbcp+1,
      0x1.589b3f99e24acp-1, 0x1.0574b11142f51p-1, -0x1.a82eb5426bb45p-1,
      -0x1.bc75bae6f6d91p-1, 0x1.9490f793a1c17p-1, 0x1.4551235fb60fap-1,
      -0x1.c0664f177c52cp-3, -0x1.55ae44ac5a8edp-6, -0x1.36d7111b51adep-2,
      -0x1.2ac03218cc7cp+0, -0x1.778ad4676d0a5p+0, 0x1.a81daf6705facp-3,
      0x1.1b92a7f78555p-1, 0x1.ee00641957bf3p-1, 0x1.ea67af7b3dabfp-4,
      0x1.bab8de168f31dp-2, -0x1.147ef8e620cf8p-1, 0x1.3cb2477dce58bp+1,
      0x1.e2146e1c5eef5p-5, 0x1.72caabfdf6762p-2, 0x1.2a332cb5839a4p-1,
      -0x1.0cb02d1a485f7p+1, -0x1.90c6addfca552p-2, 0x1.90cafe6a6e134p-1,
      0x1.26b813adce41fp+0, -0x1.214dc2df7f727p-3, -0x1.92422584aa991p+0,
      -0x1.2fa6efea80165p-4, 0x1.02d15170d3284p-1, 0x1.87f2cba479377p-1,
      0x1.07dc62f3c2a0dp+0, 0x1.7288d7f67335p+0, 0x1.2fba13a614dbdp+0,
      -0x1.822d886d54eb1p-2, -0x1.0520c68069c2cp-3, -0x1.1ae1dadd28523p-2,
      0x1.cd820e6d265fdp-1, -0x1.a0c53eb36b096p-2, -0x1.0dc458db41fc5p+1,
      -0x1.04bc778d5228p-6, 0x1.0b2384bf02b72p-2, -0x1.2b28efd03dfefp-2,
      -0x1.87d503a854438p+0, -0x1.7effd9ee35f37p+0, 0x1.806fe7333818p-1,
      -0x1.0a3716105e55ap-3, 0x1.4c60c720bab66p+0, -0x1.890fb54b774d4p-1,
      0x1.65f171c43eacdp-1, 0x1.911f22c11521bp-1, 0x1.2457b54c0e921p+0,
      -0x1.534e7047a64e5p+0
  };
  mu::Rng rng(20240917);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(bits_of(rng.normal()), bits_of(kFirst64[i])) << "draw " << i;
  }

  // FNV-1a over the bit patterns of the first 10^6 draws.
  mu::Rng d(20240917);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < 1000000; ++i) {
    h = (h ^ bits_of(d.normal())) * 0x100000001b3ull;
  }
  EXPECT_EQ(h, 0x1ef4e7daee82a5b7ull);

  // Draws that leave the fast path: the first normal() of each seed takes
  // the named normal_slow branch. `layer0` says whether its first u64 lands
  // in the base strip (idx 0: the tail) or in a wedge, `negative` is its
  // sign bit, and `consumed` is how many u64s the draw takes (tail: 1 + two
  // uniforms; wedge accept: 1 + one uniform; wedge reject: 1 + one uniform
  // + a fast-path redraw).
  struct SlowDraw {
    const char* branch;
    std::uint64_t seed;
    bool layer0;
    bool negative;
    int consumed;
    double value;
  };
  static constexpr SlowDraw kSlow[] = {
      {"tail+", 7857, true, false, 3, 0x1.fb066607b4506p+1},
      {"tail-", 2554, true, true, 3, -0x1.0a912ee1fd862p+2},
      {"wedge accept+", 111, false, false, 2, 0x1.27fc54497870ap-5},
      {"wedge accept-", 57, false, true, 2, -0x1.6bea42ec687fep-1},
      {"wedge reject+", 459, false, false, 3, -0x1.3caa686d31c84p+0},
      {"wedge reject-", 94, false, true, 3, 0x1.04200e384c8cp+0},
  };
  for (const SlowDraw& s : kSlow) {
    mu::Rng raw(s.seed);
    const std::uint64_t first = raw.next_u64();
    EXPECT_EQ((first & 0xffu) == 0, s.layer0) << s.branch;
    EXPECT_EQ(((first >> 8) & 1u) != 0, s.negative) << s.branch;

    mu::Rng r(s.seed);
    EXPECT_EQ(bits_of(r.normal()), bits_of(s.value)) << s.branch;
    mu::Rng expect(s.seed);
    for (int k = 0; k < s.consumed; ++k) (void)expect.next_u64();
    EXPECT_EQ(r.next_u64(), expect.next_u64()) << s.branch;
  }
}

TEST(Rng, WithSignMatchesNegation) {
  // The branch-free sign rule of the ziggurat gives exactly what `-x`
  // gives, signed zeros and infinities included.
  for (const double x : {0.0, -0.0, 1.5, -2.25, 0x1.fb066607b4506p+1,
                         HUGE_VAL}) {
    EXPECT_EQ(bits_of(mu::detail::with_sign(x, 0)), bits_of(x)) << x;
    EXPECT_EQ(bits_of(mu::detail::with_sign(x, 1)), bits_of(-x)) << x;
  }
}

// --------------------------------------------------------- batched draws

TEST(Rng, NormalBatchMatchesScalarDrawsPerLane) {
  // Lane k of normal_batch must reproduce trajectory k's sequential scalar
  // normal() sequence bit-for-bit — the contract that makes the SIMD batch
  // width statistically invisible.
  constexpr std::size_t kW = 4;
  mu::Rng root(61);
  const std::vector<mu::Rng> streams = root.jump_substreams(kW);

  std::array<mu::Rng, kW> lanes;
  for (std::size_t k = 0; k < kW; ++k) lanes[k] = streams[k];
  std::array<mu::Rng, kW> scalar;
  for (std::size_t k = 0; k < kW; ++k) scalar[k] = streams[k];

  double out[kW];
  for (int round = 0; round < 200; ++round) {
    mu::Rng::normal_batch<kW>(lanes.data(), out);
    for (std::size_t k = 0; k < kW; ++k) {
      ASSERT_EQ(out[k], scalar[k].normal())
          << "lane " << k << " round " << round;
    }
  }
}

TEST(Rng, NormalBatchMaskSkipsIdleLanes) {
  constexpr std::size_t kW = 4;
  mu::Rng root(62);
  const std::vector<mu::Rng> streams = root.jump_substreams(kW);
  std::array<mu::Rng, kW> lanes;
  for (std::size_t k = 0; k < kW; ++k) lanes[k] = streams[k];

  double out[kW] = {-1.0, -1.0, -1.0, -1.0};
  mu::Rng::normal_batch<kW>(lanes.data(), out, 0b0101u);
  // Masked lanes kept their value and consumed nothing from their streams.
  EXPECT_EQ(out[1], -1.0);
  EXPECT_EQ(out[3], -1.0);
  mu::Rng untouched1 = streams[1], untouched3 = streams[3];
  EXPECT_EQ(lanes[1].next_u64(), untouched1.next_u64());
  EXPECT_EQ(lanes[3].next_u64(), untouched3.next_u64());
  // Active lanes drew exactly one normal each.
  mu::Rng active0 = streams[0];
  EXPECT_EQ(out[0], active0.normal());
  EXPECT_EQ(lanes[0].next_u64(), active0.next_u64());
}

// ----------------------------------------- per-trajectory substream keying

TEST(Rng, TrajectorySubstreamsAreDeterministicAndDistinct) {
  // jump_substreams at per-trajectory granularity: the stream list is a
  // pure function of the entry state, streams are pairwise distinct, and
  // the caller advances identically regardless of n.
  mu::Rng a(123), b(123);
  const auto sa = a.jump_substreams(64);
  const auto sb = b.jump_substreams(64);
  ASSERT_EQ(sa.size(), 64u);
  for (std::size_t k = 0; k < sa.size(); ++k) {
    mu::Rng x = sa[k], y = sb[k];
    EXPECT_EQ(x.next_u64(), y.next_u64()) << "stream " << k;
  }
  // Distinctness: first draws of all 64 streams never collide.
  std::vector<std::uint64_t> firsts;
  for (const auto& s : sa) {
    mu::Rng copy = s;
    firsts.push_back(copy.next_u64());
  }
  std::sort(firsts.begin(), firsts.end());
  EXPECT_EQ(std::adjacent_find(firsts.begin(), firsts.end()), firsts.end());
  // Caller state after deriving n streams is independent of n.
  mu::Rng c(123), d(123);
  (void)c.jump_substreams(1);
  (void)d.jump_substreams(1000);
  EXPECT_EQ(c.next_u64(), d.next_u64());
}

TEST(Rng, TrajectorySubstreamNormalsAreUncorrelated) {
  // Jump-independence at trajectory granularity: consecutive per-trajectory
  // substreams must show no cross-correlation in their normal draws (the
  // draws the LLG thermal field consumes).
  mu::Rng root(77);
  const auto streams = root.jump_substreams(8);
  const int n = 20000;
  for (std::size_t s = 0; s + 1 < streams.size(); ++s) {
    mu::Rng a = streams[s], b = streams[s + 1];
    double sum_ab = 0.0;
    for (int i = 0; i < n; ++i) sum_ab += a.normal() * b.normal();
    EXPECT_NEAR(sum_ab / n, 0.0, 0.03) << "streams " << s << "," << s + 1;
  }
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  mu::Rng parent(31);
  mu::Rng c1 = parent.fork(1);
  mu::Rng c2 = parent.fork(1);
  EXPECT_EQ(c1.next_u64(), c2.next_u64()); // same label -> same stream
  mu::Rng c3 = parent.fork(2);
  mu::Rng c4 = parent.fork(1);
  EXPECT_NE(c3.next_u64(), c4.next_u64()); // different labels differ
}
