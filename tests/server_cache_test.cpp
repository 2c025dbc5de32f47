// ResultCache: bit-exact persistence, crash-safe replay (torn tails, CRC
// corruption), first-write-wins, cache-key injectivity and the stability
// of the row pointers the cache hands out.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

#include "server/cache.hpp"
#include "util/io_fault.hpp"

namespace {

using mss::server::cache_key;
using mss::server::ResultCache;
using mss::server::Row;
using mss::sweep::Value;

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

/// A unique temp path (file not created).
std::string temp_path() {
  static int counter = 0;
  return testing::TempDir() + "mss_cache_test_" + std::to_string(::getpid()) +
         "_" + std::to_string(counter++) + ".mssc";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), std::streamsize(bytes.size()));
}

/// Cell-by-cell equality with doubles compared by their IEEE bits.
bool rows_bit_equal(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t c = 0; c < a.size(); ++c) {
    if (a[c].index() != b[c].index()) return false;
    if (const auto* da = std::get_if<double>(&a[c])) {
      if (bits_of(*da) != bits_of(std::get<double>(b[c]))) return false;
    } else if (a[c] != b[c]) {
      return false;
    }
  }
  return true;
}

TEST(CacheKey, DistinctComponentsNeverCollide) {
  // Every component participates.
  EXPECT_NE(cache_key("a", 1, 0, "k"), cache_key("b", 1, 0, "k"));
  EXPECT_NE(cache_key("a", 1, 0, "k"), cache_key("a", 2, 0, "k"));
  EXPECT_NE(cache_key("a", 1, 0, "k"), cache_key("a", 1, 7, "k"));
  EXPECT_NE(cache_key("a", 1, 0, "k"), cache_key("a", 1, 0, "q"));
  // Shifting text between id and key must not collide: the separator is
  // 0x1F, which Point::key() can never emit unescaped... and experiment
  // ids are code constants without it.
  EXPECT_NE(cache_key("ab", 1, 0, "c"), cache_key("a", 1, 0, "bc"));
}

TEST(ResultCache, InMemoryLookupAndFirstWriteWins) {
  ResultCache cache(""); // no persistence
  EXPECT_EQ(cache.lookup("k"), nullptr);
  const Row& first = cache.insert("k", {Value(std::int64_t(1)), Value(2.5)});
  const Row& again = cache.insert("k", {Value(std::int64_t(999))}); // ignored
  EXPECT_EQ(&again, &first); // the first-written row is returned
  const auto got = cache.lookup("k");
  ASSERT_EQ(got, &first);
  ASSERT_EQ(got->size(), 2u);
  EXPECT_EQ(std::get<std::int64_t>((*got)[0]), 1);
  EXPECT_EQ(std::get<double>((*got)[1]), 2.5);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(ResultCache, ReopenReplaysBitExactRows) {
  const std::string path = temp_path();
  const std::vector<Value> tricky = {
      Value(-0.0), Value(std::numeric_limits<double>::denorm_min()),
      Value(std::numeric_limits<double>::infinity()),
      Value(std::int64_t(-1)), Value(std::string("s;=\x1f\\\0end", 8))};
  {
    ResultCache cache(path);
    EXPECT_EQ(cache.replayed(), 0u);
    cache.insert("row1", tricky);
    cache.insert("row2", {Value(std::int64_t(7))});
  }
  ResultCache cache(path);
  EXPECT_EQ(cache.replayed(), 2u);
  EXPECT_EQ(cache.discarded_bytes(), 0u);
  const auto got = cache.lookup("row1");
  ASSERT_NE(got, nullptr);
  ASSERT_EQ(got->size(), tricky.size());
  EXPECT_EQ(bits_of(std::get<double>((*got)[0])), bits_of(-0.0));
  EXPECT_EQ(bits_of(std::get<double>((*got)[1])),
            bits_of(std::numeric_limits<double>::denorm_min()));
  EXPECT_EQ(bits_of(std::get<double>((*got)[2])),
            bits_of(std::numeric_limits<double>::infinity()));
  EXPECT_EQ(std::get<std::int64_t>((*got)[3]), -1);
  EXPECT_EQ(std::get<std::string>((*got)[4]), std::string("s;=\x1f\\\0end", 8));
  std::remove(path.c_str());
}

TEST(ResultCache, TornTailIsTruncatedAndAppendableAgain) {
  const std::string path = temp_path();
  {
    ResultCache cache(path);
    cache.insert("a", {Value(1.0)});
    cache.insert("b", {Value(2.0)});
  }
  const std::string intact = read_file(path);
  // Simulate a crash mid-append: half a record's worth of garbage.
  write_file(path, intact + std::string("\x40\x00\x00\x00\x12\x34", 6));
  {
    ResultCache cache(path);
    EXPECT_EQ(cache.replayed(), 2u);
    EXPECT_GT(cache.discarded_bytes(), 0u);
    ASSERT_NE(cache.lookup("a"), nullptr);
    ASSERT_NE(cache.lookup("b"), nullptr);
    cache.insert("c", {Value(3.0)}); // appends onto the clean boundary
  }
  ResultCache cache(path);
  EXPECT_EQ(cache.replayed(), 3u);
  EXPECT_EQ(cache.discarded_bytes(), 0u);
  EXPECT_NE(cache.lookup("c"), nullptr);
  std::remove(path.c_str());
}

// The append loop retries short writes, so a crash can cut a record at
// ANY byte — not just leave whole-header garbage like the test above.
// Tear the last record mid-payload (past its 8-byte header, before its
// end) and check replay recovers exactly the fully-written prefix.
TEST(ResultCache, RecordTornMidPayloadIsTruncated) {
  const std::string path = temp_path();
  std::size_t before_last = 0;
  {
    ResultCache cache(path);
    cache.insert("a", {Value(1.0), Value(std::int64_t(10))});
    before_last = read_file(path).size();
    cache.insert("b", {Value(2.0), Value(std::int64_t(20))});
  }
  const std::string intact = read_file(path);
  const std::size_t last_record = intact.size() - before_last;
  ASSERT_GT(last_record, 10u); // header (8) + at least 2 payload bytes
  // Cut inside the last record's payload: header intact, payload short.
  write_file(path, intact.substr(0, before_last + 10));
  {
    ResultCache cache(path);
    EXPECT_EQ(cache.replayed(), 1u);
    EXPECT_EQ(cache.discarded_bytes(), 10u);
    EXPECT_NE(cache.lookup("a"), nullptr);
    EXPECT_EQ(cache.lookup("b"), nullptr);
    cache.insert("b", {Value(2.0), Value(std::int64_t(20))}); // recompute
  }
  ResultCache cache(path);
  EXPECT_EQ(cache.replayed(), 2u);
  EXPECT_EQ(cache.discarded_bytes(), 0u);
  EXPECT_NE(cache.lookup("b"), nullptr);
  std::remove(path.c_str());
}

// Same idea, torn inside the 8-byte length/CRC header itself.
TEST(ResultCache, RecordTornMidHeaderIsTruncated) {
  const std::string path = temp_path();
  std::size_t before_last = 0;
  {
    ResultCache cache(path);
    cache.insert("a", {Value(1.0)});
    before_last = read_file(path).size();
    cache.insert("b", {Value(2.0)});
  }
  const std::string intact = read_file(path);
  write_file(path, intact.substr(0, before_last + 5)); // len + 1 CRC byte
  ResultCache cache(path);
  EXPECT_EQ(cache.replayed(), 1u);
  EXPECT_EQ(cache.discarded_bytes(), 5u);
  EXPECT_EQ(cache.lookup("b"), nullptr);
  std::remove(path.c_str());
}

TEST(ResultCache, CrcCorruptionDropsTheRecord) {
  const std::string path = temp_path();
  {
    ResultCache cache(path);
    cache.insert("a", {Value(1.0)});
    cache.insert("b", {Value(2.0)});
  }
  std::string bytes = read_file(path);
  bytes.back() = char(bytes.back() ^ 0x01); // flip one payload bit of "b"
  write_file(path, bytes);

  ResultCache cache(path);
  EXPECT_EQ(cache.replayed(), 1u);
  EXPECT_GT(cache.discarded_bytes(), 0u);
  EXPECT_NE(cache.lookup("a"), nullptr);
  EXPECT_EQ(cache.lookup("b"), nullptr);
  std::remove(path.c_str());
}

TEST(ResultCache, NonCacheFileIsRefused) {
  const std::string path = temp_path();
  write_file(path, "definitely not a cache file");
  EXPECT_THROW(ResultCache cache(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ResultCache, EmptyRowRoundTrips) {
  const std::string path = temp_path();
  {
    ResultCache cache(path);
    cache.insert("empty", {});
  }
  ResultCache cache(path);
  const auto got = cache.lookup("empty");
  ASSERT_NE(got, nullptr);
  EXPECT_TRUE(got->empty());
  std::remove(path.c_str());
}

// The cache is the only owner of served rows: jobs keep pointers into it
// and fetches read them without a lock. Those pointers must survive
// rehash (many further inserts), compaction and memory-only (over-cap)
// inserts, with the row bit-identical throughout.
TEST(ResultCache, RowPointersStayValidForTheCacheLifetime) {
  const std::string path = temp_path();
  const Row tricky = {Value(-0.0),
                      Value(std::numeric_limits<double>::denorm_min()),
                      Value(std::int64_t(-1)),
                      Value(std::string("p\x1f\0q", 4))};
  mss::server::CacheOptions options;
  options.max_bytes = 1u << 20; // room for the small rows, not the big one
  ResultCache cache(path, options);

  const Row& first = cache.insert("first", tricky);
  EXPECT_EQ(cache.lookup("first"), &first);
  EXPECT_EQ(&cache.insert("first", {Value(99.0)}), &first);
  EXPECT_TRUE(rows_bit_equal(first, tricky));

  for (int i = 0; i < 10'000; ++i) { // forces many rehashes
    cache.insert(std::to_string(i), {Value(double(i))});
  }
  EXPECT_EQ(cache.lookup("first"), &first);
  EXPECT_TRUE(rows_bit_equal(first, tricky));

  const auto stats = cache.compact();
  EXPECT_EQ(stats.records_after, 10'001u);
  EXPECT_EQ(cache.lookup("first"), &first);
  EXPECT_TRUE(rows_bit_equal(first, tricky));

  const Row& big = cache.insert("big", {Value(std::string(2u << 20, 'x'))});
  EXPECT_EQ(cache.capped_appends(), 1u); // memory-only
  EXPECT_EQ(cache.lookup("big"), &big);
  EXPECT_EQ(cache.lookup("first"), &first);
  EXPECT_TRUE(rows_bit_equal(first, tricky));
  std::remove(path.c_str());
}

// --- growth management: compaction + size cap --------------------------------

/// Duplicates every record in `path` once (header kept) — the on-disk
/// shape concurrent writers racing the same points leave behind.
void duplicate_records(const std::string& path) {
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 8u);
  write_file(path, bytes + bytes.substr(8));
}

TEST(ResultCache, CompactionShrinksDuplicateHeavyFileBitIdentically) {
  const std::string path = temp_path();
  const std::vector<Value> tricky = {
      Value(-0.0), Value(std::numeric_limits<double>::denorm_min()),
      Value(std::int64_t(-1)), Value(std::string("x\x1f;\0y", 5))};
  {
    ResultCache cache(path);
    cache.insert("a", tricky);
    cache.insert("b", {Value(2.0)});
    cache.insert("c", {Value(3.0)});
  }
  duplicate_records(path);
  const std::size_t fat = read_file(path).size();

  ResultCache cache(path);
  EXPECT_EQ(cache.replayed(), 3u);
  const auto stats = cache.compact();
  EXPECT_EQ(stats.bytes_before, fat);
  EXPECT_EQ(stats.records_before, 6u);
  EXPECT_EQ(stats.records_after, 3u);
  EXPECT_LT(stats.bytes_after, stats.bytes_before);
  EXPECT_EQ(read_file(path).size(), stats.bytes_after);
  EXPECT_TRUE(cache.persistent());

  // The compacted file replays bit-identically.
  ResultCache reread(path);
  EXPECT_EQ(reread.replayed(), 3u);
  EXPECT_EQ(reread.discarded_bytes(), 0u);
  const auto got = reread.lookup("a");
  ASSERT_NE(got, nullptr);
  ASSERT_EQ(got->size(), tricky.size());
  EXPECT_EQ(bits_of(std::get<double>((*got)[0])), bits_of(-0.0));
  EXPECT_EQ(bits_of(std::get<double>((*got)[1])),
            bits_of(std::numeric_limits<double>::denorm_min()));
  EXPECT_EQ(std::get<std::string>((*got)[3]), std::string("x\x1f;\0y", 5));
  std::remove(path.c_str());
}

TEST(ResultCache, CompactionIsIdempotent) {
  const std::string path = temp_path();
  {
    ResultCache cache(path);
    cache.insert("a", {Value(1.0)});
  }
  duplicate_records(path);
  ResultCache cache(path);
  const auto first = cache.compact();
  const auto second = cache.compact();
  EXPECT_EQ(second.bytes_before, first.bytes_after);
  EXPECT_EQ(second.bytes_after, first.bytes_after);
  EXPECT_EQ(second.records_before, 1u);
  EXPECT_EQ(second.records_after, 1u);
  std::remove(path.c_str());
}

TEST(ResultCache, SizeCapSkipsAppendsButKeepsRowsInMemory) {
  const std::string path = temp_path();
  std::size_t two_rows = 0;
  {
    ResultCache cache(path);
    cache.insert("a", {Value(1.0)});
    cache.insert("b", {Value(2.0)});
    two_rows = cache.file_bytes();
  }
  std::remove(path.c_str());

  // Cap exactly at two rows: the third insert cannot fit, has no
  // duplicates to reclaim, and must degrade to a memory-only row without
  // erroring or growing the file.
  mss::server::CacheOptions options;
  options.max_bytes = two_rows;
  ResultCache cache(path, options);
  cache.insert("a", {Value(1.0)});
  cache.insert("b", {Value(2.0)});
  EXPECT_EQ(cache.capped_appends(), 0u);
  cache.insert("c", {Value(3.0)});
  EXPECT_EQ(cache.capped_appends(), 1u);
  EXPECT_TRUE(cache.persistent()); // capped, not broken
  EXPECT_EQ(cache.file_bytes(), two_rows);
  ASSERT_NE(cache.lookup("c"), nullptr); // served from memory

  ResultCache reread(path);
  EXPECT_EQ(reread.replayed(), 2u);
  EXPECT_EQ(reread.lookup("c"), nullptr);
  std::remove(path.c_str());
}

TEST(ResultCache, SizeCapCompactsDuplicatesToMakeRoom) {
  const std::string path = temp_path();
  std::size_t three_rows = 0;
  {
    ResultCache cache(path);
    cache.insert("a", {Value(1.0)});
    cache.insert("b", {Value(2.0)});
    cache.insert("c", {Value(3.0)});
    three_rows = cache.file_bytes();
  }
  duplicate_records(path); // ~2x the cap on disk now

  mss::server::CacheOptions options;
  options.max_bytes = three_rows + 8; // room for the live set, not the fat file
  ResultCache cache(path, options);
  EXPECT_EQ(cache.replayed(), 3u);
  // The insert crosses the cap, finds reclaimable duplicates, compacts —
  // and the compaction pass itself persists the new row.
  cache.insert("d", {Value(4.0)});
  EXPECT_EQ(cache.capped_appends(), 0u);
  EXPECT_LE(cache.file_bytes(), three_rows + three_rows / 2);

  ResultCache reread(path);
  EXPECT_EQ(reread.replayed(), 4u);
  EXPECT_NE(reread.lookup("d"), nullptr);
  std::remove(path.c_str());
}

// --- disk-failure degradation (needs the fault-injection build) --------------

class FaultGuard {
 public:
  explicit FaultGuard(const std::string& spec) {
    mss::util::fault::install(spec);
  }
  ~FaultGuard() { mss::util::fault::uninstall(); }
};

TEST(ResultCache, EnospcMidAppendRollsBackDegradesAndCompactRecovers) {
  if (!mss::util::fault::kCompiledIn) {
    GTEST_SKIP() << "fault injection not compiled in (MSS_FAULT_INJECTION)";
  }
  const std::string path = temp_path();
  ResultCache cache(path);
  cache.insert("a", {Value(1.0)});
  const std::size_t clean = cache.file_bytes();

  {
    // Every write fails with ENOSPC from here: the append must roll the
    // file back to the clean boundary and drop to memory-only — and the
    // insert must NOT throw (a full disk cannot fail jobs).
    FaultGuard g("write:ENOSPC");
    cache.insert("b", {Value(2.0)});
  }
  EXPECT_EQ(cache.append_failures(), 1u);
  EXPECT_FALSE(cache.persistent());
  ASSERT_NE(cache.lookup("b"), nullptr); // memory-only, still served
  EXPECT_EQ(read_file(path).size(), clean);   // rolled back, no torn tail

  cache.insert("c", {Value(3.0)}); // degraded: memory-only, no disk touch
  EXPECT_EQ(read_file(path).size(), clean);

  // The "disk" works again; a successful compaction writes the full live
  // set and re-enables persistence.
  const auto stats = cache.compact();
  EXPECT_EQ(stats.records_after, 3u);
  EXPECT_TRUE(cache.persistent());
  cache.insert("d", {Value(4.0)}); // appends again

  ResultCache reread(path);
  EXPECT_EQ(reread.replayed(), 4u);
  EXPECT_NE(reread.lookup("b"), nullptr);
  EXPECT_NE(reread.lookup("d"), nullptr);
  std::remove(path.c_str());
}

TEST(ResultCache, ShortWriteStormStillPersistsEveryRecord) {
  if (!mss::util::fault::kCompiledIn) {
    GTEST_SKIP() << "fault injection not compiled in (MSS_FAULT_INJECTION)";
  }
  const std::string path = temp_path();
  {
    ResultCache cache(path);
    // Short writes + EINTR are retried inside the append loop, so a storm
    // of them must not tear records or lose data.
    FaultGuard g("seed=7;write:short:p=0.6;write:EINTR:p=0.2");
    for (int i = 0; i < 20; ++i) {
      cache.insert("k" + std::to_string(i), {Value(double(i)), Value(-0.0)});
    }
    EXPECT_TRUE(cache.persistent());
  }
  ResultCache reread(path);
  EXPECT_EQ(reread.replayed(), 20u);
  EXPECT_EQ(reread.discarded_bytes(), 0u);
  for (int i = 0; i < 20; ++i) {
    const auto got = reread.lookup("k" + std::to_string(i));
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(bits_of(std::get<double>((*got)[0])), bits_of(double(i)));
    EXPECT_EQ(bits_of(std::get<double>((*got)[1])), bits_of(-0.0));
  }
  std::remove(path.c_str());
}

} // namespace
