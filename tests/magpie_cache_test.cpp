// Tests of the cache model used by the MAGPIE performance simulation.
#include "magpie/cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "magpie_cache_ref.hpp"
#include "util/rng.hpp"

namespace mm = mss::magpie;

TEST(Cache, ColdMissThenHit) {
  mm::Cache c(1024, 2, 64, nullptr);
  EXPECT_EQ(c.access(0x1000, false), mm::HitLevel::Memory);
  EXPECT_EQ(c.access(0x1000, false), mm::HitLevel::L1);
  EXPECT_EQ(c.stats().reads, 2u);
  EXPECT_EQ(c.stats().read_misses, 1u);
}

TEST(Cache, SameLineDifferentOffsetHits) {
  mm::Cache c(1024, 2, 64, nullptr);
  (void)c.access(0x1000, false);
  EXPECT_EQ(c.access(0x103F, false), mm::HitLevel::L1);
  EXPECT_EQ(c.access(0x1040, false), mm::HitLevel::Memory); // next line
}

TEST(Cache, LruEvictsOldest) {
  // 2-way, 2 sets of 64B lines: capacity 256B. Addresses mapping to set 0:
  // multiples of 128.
  mm::Cache c(256, 2, 64, nullptr);
  (void)c.access(0x0000, false);  // set 0, way A
  (void)c.access(0x0080, false);  // set 0, way B
  (void)c.access(0x0000, false);  // touch A: B is now LRU
  (void)c.access(0x0100, false);  // evicts B
  EXPECT_EQ(c.access(0x0000, false), mm::HitLevel::L1); // A still present
  EXPECT_EQ(c.access(0x0080, false), mm::HitLevel::Memory); // B evicted
}

TEST(Cache, DirtyEvictionCountsWriteback) {
  mm::Cache l2(4096, 4, 64, nullptr);
  mm::Cache l1(128, 1, 64, &l2); // 2 sets, direct-mapped: easy conflicts
  (void)l1.access(0x0000, true); // dirty line in set 0
  (void)l1.access(0x0100, false); // conflicts set 0 -> evicts dirty
  EXPECT_EQ(l1.stats().writebacks, 1u);
  // The writeback lands in the L2 as a write access.
  EXPECT_GE(l2.stats().writes, 1u);
}

TEST(Cache, CleanEvictionDoesNotWriteback) {
  mm::Cache l1(128, 1, 64, nullptr);
  (void)l1.access(0x0000, false);
  (void)l1.access(0x0100, false);
  EXPECT_EQ(l1.stats().writebacks, 0u);
}

TEST(Cache, HierarchyReportsIntermediateHit) {
  mm::Cache l2(8192, 4, 64, nullptr);
  mm::Cache l1(256, 2, 64, &l2);
  (void)l1.access(0xAA00, false);            // cold: memory
  l1.flush();                                 // L1 loses it, L2 keeps it
  EXPECT_EQ(l1.access(0xAA00, false), mm::HitLevel::L2);
}

TEST(Cache, FlushClearsContentNotStats) {
  mm::Cache c(1024, 2, 64, nullptr);
  (void)c.access(0x40, false);
  c.flush();
  EXPECT_EQ(c.access(0x40, false), mm::HitLevel::Memory);
  EXPECT_EQ(c.stats().reads, 2u);
  c.reset_stats();
  EXPECT_EQ(c.stats().reads, 0u);
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(mm::Cache(0, 2, 64, nullptr), std::invalid_argument);
  EXPECT_THROW(mm::Cache(1000, 2, 60, nullptr), std::invalid_argument);
  EXPECT_THROW(mm::Cache(1024, 0, 64, nullptr), std::invalid_argument);
  EXPECT_THROW(mm::Cache(1024, 2, 0, nullptr), std::invalid_argument);
  EXPECT_THROW(mm::Cache(3 * 64, 1, 64, nullptr), std::invalid_argument);
  // One set of one-byte lines leaves no tag value free for empty ways.
  EXPECT_THROW(mm::Cache(4, 4, 1, nullptr), std::invalid_argument);
  EXPECT_NO_THROW(mm::Cache(8, 4, 1, nullptr));
  EXPECT_NO_THROW(mm::Cache(8, 4, 2, nullptr));
}

TEST(Cache, MissRateDropsWithCapacity) {
  // Random-ish working set of 32 KB against 8 KB vs 64 KB caches.
  auto run = [](std::size_t cap) {
    mm::Cache c(cap, 8, 64, nullptr);
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 200000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      (void)c.access((x % (32 * 1024)) & ~63ull, false);
    }
    return c.stats().miss_rate();
  };
  EXPECT_GT(run(8 * 1024), run(64 * 1024));
  EXPECT_LT(run(64 * 1024), 0.01); // fits entirely
}

// Randomized equivalence against the array-of-structs reference model
// (tests/magpie_cache_ref.hpp): same hit level and same counters, access
// for access.
namespace {

void expect_same_stats(const mm::CacheStats& a, const mm::CacheStats& b,
                       const std::string& where) {
  EXPECT_EQ(a.reads, b.reads) << where;
  EXPECT_EQ(a.writes, b.writes) << where;
  EXPECT_EQ(a.read_misses, b.read_misses) << where;
  EXPECT_EQ(a.write_misses, b.write_misses) << where;
  EXPECT_EQ(a.writebacks, b.writebacks) << where;
}

/// Random address over a footprint of `lines` lines of `line` bytes: half
/// the references go to the first eighth of it, so sets see both reuse
/// and eviction.
std::uint64_t random_addr(mss::util::Rng& rng, std::uint64_t lines,
                          std::uint64_t line) {
  const std::uint64_t span = rng.bernoulli(0.5) ? lines / 8 + 1 : lines;
  return (0x40000 + rng.uniform_u64(span)) * line + rng.uniform_u64(line);
}

} // namespace

TEST(CacheOracle, SingleLevelMatchesReference) {
  mss::util::Rng rng(2024);
  for (std::size_t ways = 1; ways <= 16; ++ways) {
    for (std::size_t sets = 1; sets <= 64; sets *= 4) {
      const std::size_t line = 32;
      const std::size_t cap = ways * sets * line;
      mm::Cache c(cap, ways, line, nullptr);
      mm::oracle::RefCache r(cap, ways, line, nullptr);
      const std::string where =
          std::to_string(ways) + " ways x " + std::to_string(sets) + " sets";
      for (int i = 0; i < 4000; ++i) {
        if (i == 2500) {
          c.flush();
          r.flush();
        }
        const std::uint64_t addr = random_addr(rng, 3 * ways * sets, line);
        const bool wr = rng.bernoulli(0.3);
        ASSERT_EQ(c.access(addr, wr), r.access(addr, wr))
            << where << ", access " << i;
      }
      expect_same_stats(c.stats(), r.stats(), where);
    }
  }
}

TEST(CacheOracle, HierarchyWithWritebacksMatchesReference) {
  mss::util::Rng rng(77);
  const std::size_t line = 64;
  for (std::size_t l1_ways = 1; l1_ways <= 16; ++l1_ways) {
    const std::size_t l2_ways = 17 - l1_ways;
    const std::size_t l1_sets = l1_ways % 2 ? 4 : 8;
    const std::size_t l2_sets = 4 * l1_sets;
    const std::size_t l1_cap = l1_ways * l1_sets * line;
    const std::size_t l2_cap = l2_ways * l2_sets * line;
    mm::Cache l2(l2_cap, l2_ways, line, nullptr);
    mm::Cache l1(l1_cap, l1_ways, line, &l2);
    mm::oracle::RefCache r2(l2_cap, l2_ways, line, nullptr);
    mm::oracle::RefCache r1(l1_cap, l1_ways, line, &r2);
    const std::string where = "L1 " + std::to_string(l1_ways) + " ways, L2 " +
                              std::to_string(l2_ways) + " ways";
    const std::uint64_t footprint =
        2 * (l1_ways * l1_sets + l2_ways * l2_sets);
    for (int i = 0; i < 6000; ++i) {
      if (i == 4000) { // the L1 loses its content, the L2 keeps it
        l1.flush();
        r1.flush();
      }
      const std::uint64_t addr = random_addr(rng, footprint, line);
      const bool wr = rng.bernoulli(0.4);
      ASSERT_EQ(l1.access(addr, wr), r1.access(addr, wr))
          << where << ", access " << i;
      ASSERT_EQ(l1.stats().writebacks, r1.stats().writebacks)
          << where << ", access " << i;
      ASSERT_EQ(l2.stats().accesses(), r2.stats().accesses())
          << where << ", access " << i;
    }
    expect_same_stats(l1.stats(), r1.stats(), where + ", L1");
    expect_same_stats(l2.stats(), r2.stats(), where + ", L2");
    EXPECT_GT(l1.stats().writebacks, 0u) << where;
    EXPECT_GT(l2.stats().writebacks, 0u) << where;
  }
}
