// Tests of the thread pool and the RNG jump streams that make the parallel
// Monte-Carlo subsystem deterministic.
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace mu = mss::util;

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  mu::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr std::size_t kN = 1003;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for_chunks(kN, 16, [&](std::size_t, std::size_t b,
                                       std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, SingleThreadRunsInline) {
  mu::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::size_t total = 0; // no atomics needed: everything runs on the caller
  pool.parallel_for_chunks(100, 7, [&](std::size_t, std::size_t b,
                                       std::size_t e) { total += e - b; });
  EXPECT_EQ(total, 100u);
}

TEST(ThreadPool, ChunkLayoutIndependentOfThreadCount) {
  constexpr std::size_t kN = 530;
  constexpr std::size_t kChunk = 32;
  const auto layout_with = [&](std::size_t threads) {
    mu::ThreadPool pool(threads);
    std::vector<std::size_t> chunk_of(kN, ~std::size_t{0});
    pool.parallel_for_chunks(kN, kChunk, [&](std::size_t c, std::size_t b,
                                             std::size_t e) {
      for (std::size_t i = b; i < e; ++i) chunk_of[i] = c;
    });
    return chunk_of;
  };
  const auto serial = layout_with(1);
  const auto parallel = layout_with(4);
  EXPECT_EQ(serial, parallel);
  // And the layout is the arithmetic one.
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(serial[i], i / kChunk);
}

TEST(ThreadPool, ReduceSumsDeterministically) {
  mu::ThreadPool pool(4);
  constexpr std::size_t kN = 2000;
  const double sum = pool.parallel_reduce<double>(
      kN, 64, 0.0,
      [](std::size_t, std::size_t b, std::size_t e) {
        double acc = 0.0;
        for (std::size_t i = b; i < e; ++i) acc += double(i);
        return acc;
      },
      [](double acc, double part) { return acc + part; });
  EXPECT_DOUBLE_EQ(sum, double(kN) * double(kN - 1) / 2.0);

  // Same value bit-for-bit from a serial pool: combine order is chunk order.
  mu::ThreadPool serial(1);
  const double sum1 = serial.parallel_reduce<double>(
      kN, 64, 0.0,
      [](std::size_t, std::size_t b, std::size_t e) {
        double acc = 0.0;
        for (std::size_t i = b; i < e; ++i) acc += double(i);
        return acc;
      },
      [](double acc, double part) { return acc + part; });
  EXPECT_EQ(sum, sum1);
}

TEST(ThreadPool, PropagatesBodyException) {
  mu::ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for_chunks(100, 10,
                               [&](std::size_t c, std::size_t, std::size_t) {
                                 if (c == 3) {
                                   throw std::runtime_error("chunk failed");
                                 }
                               }),
      std::runtime_error);
  // The pool survives a failed region.
  std::atomic<std::size_t> done{0};
  pool.parallel_for_chunks(
      10, 1, [&](std::size_t, std::size_t, std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 10u);
}

TEST(ThreadPool, NestedSamePoolCallRunsInline) {
  // A body calling back into its own pool (two composed global()-pool
  // kernels) must degrade to an inline run instead of deadlocking on the
  // single region slot.
  mu::ThreadPool pool(3);
  std::atomic<std::size_t> inner_total{0};
  pool.parallel_for_chunks(8, 2, [&](std::size_t, std::size_t, std::size_t) {
    pool.parallel_for_chunks(
        10, 3, [&](std::size_t, std::size_t b, std::size_t e) {
          inner_total.fetch_add(e - b);
        });
  });
  EXPECT_EQ(inner_total.load(), 4u * 10u);
}

TEST(ThreadPool, RunWithPolicyMatchesDirectPool) {
  // run_with(0) -> shared global pool, run_with(N) -> dedicated pool; both
  // must produce the same chunk layout as a direct pool call.
  for (const std::size_t threads : {0u, 1u, 3u}) {
    std::vector<std::size_t> chunk_of(100, ~std::size_t{0});
    mu::ThreadPool::run_with(threads, 100, 8,
                             [&](std::size_t c, std::size_t b, std::size_t e) {
                               for (std::size_t i = b; i < e; ++i) {
                                 chunk_of[i] = c;
                               }
                             });
    for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(chunk_of[i], i / 8);
  }
}

TEST(ThreadPool, SequentialRegionsReuseWorkers) {
  mu::ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> count{0};
    pool.parallel_for_chunks(
        64, 4,
        [&](std::size_t, std::size_t b, std::size_t e) {
          count.fetch_add(e - b);
        });
    ASSERT_EQ(count.load(), 64u) << "round " << round;
  }
}

// --------------------------------------------------------------- jump streams

TEST(RngJump, DeterministicAndDivergent) {
  mu::Rng a(99), b(99), base(99);
  a.jump();
  b.jump();
  for (int i = 0; i < 256; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  // The jumped stream shares no aligned values with its base.
  mu::Rng c(99);
  c.jump();
  int collisions = 0;
  for (int i = 0; i < 4096; ++i) {
    if (base.next_u64() == c.next_u64()) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

TEST(RngJump, SubstreamsAreUncorrelated) {
  // Pearson cross-correlation between uniforms of consecutive jump
  // substreams — the worker streams of the Monte-Carlo kernels.
  mu::Rng s0(0xC0FFEE);
  mu::Rng s1 = s0;
  s1.jump();
  constexpr int kN = 20000;
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  for (int i = 0; i < kN; ++i) {
    const double x = s0.uniform();
    const double y = s1.uniform();
    sx += x;
    sy += y;
    sxx += x * x;
    syy += y * y;
    sxy += x * y;
  }
  const double n = kN;
  const double cov = sxy / n - (sx / n) * (sy / n);
  const double vx = sxx / n - (sx / n) * (sx / n);
  const double vy = syy / n - (sy / n) * (sy / n);
  const double r = cov / std::sqrt(vx * vy);
  // 3-sigma bound for independent streams is ~3/sqrt(N) ~ 0.021.
  EXPECT_LT(std::abs(r), 0.03);
}

TEST(RngJump, JumpClearsCachedNormal) {
  // A cached second Marsaglia normal must not leak across a jump: the
  // substream's draws depend only on the post-jump state.
  mu::Rng a(7), twin(7);
  const double first = twin.normal();
  const double stale_second = twin.normal(); // the value `a` caches below
  EXPECT_EQ(a.normal(), first);
  a.jump();
  EXPECT_NE(a.normal(), stale_second);
}
