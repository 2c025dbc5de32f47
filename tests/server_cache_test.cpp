// ResultCache: bit-exact persistence, crash-safe replay (torn tails, CRC
// corruption), first-write-wins, cache-key injectivity and the stability
// of the row pointers the cache hands out.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

#include "server/cache.hpp"
#include "server/wire.hpp"
#include "util/io_fault.hpp"

namespace {

using mss::server::cache_key;
using mss::server::ResultCache;
using mss::server::Row;
using mss::server::RowRef;
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
  EXPECT_FALSE(cache.lookup("k"));
  const RowRef first =
      cache.insert("k", {Value(std::int64_t(1)), Value(2.5)});
  const RowRef again = cache.insert("k", {Value(std::int64_t(999))}); // ignored
  EXPECT_TRUE(again == first); // the first-written row is returned
  EXPECT_EQ(first.key(), "k");
  ASSERT_TRUE(cache.lookup("k") == first);
  const Row got = first.decode();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(std::get<std::int64_t>(got[0]), 1);
  EXPECT_EQ(std::get<double>(got[1]), 2.5);
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
  const auto ref = cache.lookup("row1");
  ASSERT_TRUE(ref);
  const Row got = ref.decode();
  ASSERT_EQ(got.size(), tricky.size());
  EXPECT_EQ(bits_of(std::get<double>(got[0])), bits_of(-0.0));
  EXPECT_EQ(bits_of(std::get<double>(got[1])),
            bits_of(std::numeric_limits<double>::denorm_min()));
  EXPECT_EQ(bits_of(std::get<double>(got[2])),
            bits_of(std::numeric_limits<double>::infinity()));
  EXPECT_EQ(std::get<std::int64_t>(got[3]), -1);
  EXPECT_EQ(std::get<std::string>(got[4]), std::string("s;=\x1f\\\0end", 8));
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
    ASSERT_TRUE(cache.lookup("a"));
    ASSERT_TRUE(cache.lookup("b"));
    cache.insert("c", {Value(3.0)}); // appends onto the clean boundary
  }
  ResultCache cache(path);
  EXPECT_EQ(cache.replayed(), 3u);
  EXPECT_EQ(cache.discarded_bytes(), 0u);
  EXPECT_TRUE(cache.lookup("c"));
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
    EXPECT_TRUE(cache.lookup("a"));
    EXPECT_FALSE(cache.lookup("b"));
    cache.insert("b", {Value(2.0), Value(std::int64_t(20))}); // recompute
  }
  ResultCache cache(path);
  EXPECT_EQ(cache.replayed(), 2u);
  EXPECT_EQ(cache.discarded_bytes(), 0u);
  EXPECT_TRUE(cache.lookup("b"));
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
  EXPECT_FALSE(cache.lookup("b"));
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
  EXPECT_TRUE(cache.lookup("a"));
  EXPECT_FALSE(cache.lookup("b"));
  std::remove(path.c_str());
}

// A crash while a fresh cache writes its header leaves a 1-7 byte prefix
// of it. That is an empty cache, not a foreign file: replay rewrites the
// header and the cache works as if the file had been absent.
TEST(ResultCache, TornHeaderIsRewritten) {
  const std::string path = temp_path();
  { ResultCache cache(path); }
  const std::string header = read_file(path);
  ASSERT_EQ(header.size(), 8u);
  for (std::size_t k = 1; k < header.size(); ++k) {
    write_file(path, header.substr(0, k));
    {
      ResultCache cache(path);
      EXPECT_EQ(cache.replayed(), 0u) << k;
      EXPECT_EQ(cache.discarded_bytes(), 0u) << k;
      EXPECT_EQ(cache.file_bytes(), 8u) << k;
      EXPECT_EQ(read_file(path), header) << k;
      cache.insert("a", {Value(std::int64_t(k))});
    }
    ResultCache cache(path);
    EXPECT_EQ(cache.replayed(), 1u) << k;
    const RowRef a = cache.lookup("a");
    ASSERT_TRUE(a) << k;
    EXPECT_EQ(std::get<std::int64_t>(a.decode().at(0)), std::int64_t(k));
  }
  // A short file that is not a header prefix is still someone else's.
  for (const std::string& foreign :
       {std::string("MSSX"), std::string("MSSC\x02"), std::string(1, '\0')}) {
    write_file(path, foreign);
    EXPECT_THROW(ResultCache cache(path), std::runtime_error) << foreign;
    EXPECT_EQ(read_file(path), foreign);
  }
  std::remove(path.c_str());
}

// A crash can stop the file at any byte. Cut a 3-record file at every
// offset: replay keeps exactly the whole records before the cut, discards
// the rest, and the next append lands on a clean boundary.
TEST(ResultCache, TruncationAtEveryOffsetKeepsTheWholeRecords) {
  const std::string path = temp_path();
  std::vector<std::size_t> ends; // end offset of the header and each record
  {
    ResultCache cache(path);
    ends.push_back(cache.file_bytes());
    cache.insert("a", {Value(1.0), Value(std::int64_t(-2))});
    ends.push_back(cache.file_bytes());
    cache.insert("bb", {Value(std::string("x\0y", 3))});
    ends.push_back(cache.file_bytes());
    cache.insert("ccc", {});
    ends.push_back(cache.file_bytes());
  }
  const std::string intact = read_file(path);
  ASSERT_EQ(intact.size(), ends.back());
  for (std::size_t cut = 0; cut <= intact.size(); ++cut) {
    write_file(path, intact.substr(0, cut));
    std::size_t whole = 0; // records wholly before the cut
    while (whole + 1 < ends.size() && ends[whole + 1] <= cut) ++whole;
    const std::size_t kept = cut < ends[0] ? 0 : cut - ends[whole];
    {
      ResultCache cache(path);
      EXPECT_EQ(cache.replayed(), whole) << "cut " << cut;
      EXPECT_EQ(cache.discarded_bytes(), kept) << "cut " << cut;
      EXPECT_EQ(cache.file_bytes(), std::max(cut - kept, ends[0]))
          << "cut " << cut;
      cache.insert("d", {Value(4.0)});
    }
    ResultCache cache(path);
    EXPECT_EQ(cache.replayed(), whole + 1) << "cut " << cut;
    EXPECT_EQ(cache.discarded_bytes(), 0u) << "cut " << cut;
    const RowRef d = cache.lookup("d");
    ASSERT_TRUE(d) << "cut " << cut;
    EXPECT_EQ(bits_of(std::get<double>(d.decode().at(0))), bits_of(4.0));
  }
  std::remove(path.c_str());
}

/// One record framed exactly as the cache frames them — length, CRC of
/// the payload, payload — whatever the payload holds.
std::string framed_record(const std::string& payload) {
  mss::server::WireWriter w;
  w.u32(std::uint32_t(payload.size()));
  w.u32(mss::server::crc32(payload.data(), payload.size()));
  return w.take() + payload;
}

// A record whose CRC matches but whose payload is not `key | n_cells |
// value*` is corruption all the same: replay stops and truncates there.
TEST(ResultCache, MalformedPayloadWithValidCrcIsTruncated) {
  const std::string path = temp_path();
  {
    ResultCache cache(path);
    cache.insert("a", {Value(1.0)});
  }
  const std::string good = read_file(path);
  const auto payload = [](std::uint32_t n_cells, const std::string& cells) {
    mss::server::WireWriter w;
    w.str("b");
    w.u32(n_cells);
    return w.take() + cells;
  };
  const std::string one_double = std::string("\x01", 1) + std::string(8, '\0');
  const struct {
    const char* what;
    std::string payload;
  } bad[] = {
      {"bad value tag", payload(1, std::string("\x03", 1) + std::string(8, '\0'))},
      {"n_cells past the end", payload(2, one_double)},
      {"a trailing byte", payload(1, one_double + "z")},
      {"key past the end", std::string("\xff\0\0\0b", 5)},
      {"string cell past the end",
       payload(1, std::string("\x02\x09\0\0\0abc", 8))},
  };
  // Each bad record is followed by a well-formed one, which replay drops
  // too: it stops at the first bad record.
  const std::string twin = framed_record(payload(1, one_double));
  for (const auto& b : bad) {
    const std::string record = framed_record(b.payload);
    write_file(path, good + record + twin);
    {
      ResultCache cache(path);
      EXPECT_EQ(cache.replayed(), 1u) << b.what;
      EXPECT_EQ(cache.discarded_bytes(), record.size() + twin.size())
          << b.what;
      EXPECT_FALSE(cache.lookup("b")) << b.what;
    }
    EXPECT_EQ(read_file(path), good) << b.what;
  }
  // The well-formed record alone replays.
  write_file(path, good + twin);
  ResultCache cache(path);
  EXPECT_EQ(cache.replayed(), 2u);
  EXPECT_TRUE(cache.lookup("b"));
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
  const auto ref = cache.lookup("empty");
  ASSERT_TRUE(ref);
  const Row got = ref.decode();
  EXPECT_TRUE(got.empty());
  std::remove(path.c_str());
}

// The cache is the only owner of served rows: jobs keep RowRef handles
// into it and fetches read them without a lock. Those handles must survive
// rehash and new arena blocks (many further inserts), compaction and
// memory-only (over-cap) inserts, with the row's bytes unmoved and
// bit-identical throughout.
TEST(ResultCache, RowPointersStayValidForTheCacheLifetime) {
  const std::string path = temp_path();
  const Row tricky = {Value(-0.0),
                      Value(std::numeric_limits<double>::denorm_min()),
                      Value(std::int64_t(-1)),
                      Value(std::string("p\x1f\0q", 4))};
  mss::server::CacheOptions options;
  options.max_bytes = 4u << 20; // room for the small rows, not the big one
  ResultCache cache(path, options);

  const RowRef first = cache.insert("first", tricky);
  const std::string_view cells = first.cells();
  const std::string bytes(cells);
  const auto unmoved = [&] {
    return first.cells().data() == cells.data() && first.cells() == bytes &&
           first.key() == "first" && rows_bit_equal(first.decode(), tricky);
  };
  EXPECT_TRUE(cache.lookup("first") == first);
  EXPECT_TRUE(cache.insert("first", {Value(99.0)}) == first);
  EXPECT_TRUE(unmoved());

  // ~2.5 MB of records: many rehashes, and more than one arena block.
  const std::string filler(200, 'f');
  for (int i = 0; i < 10'000; ++i) {
    cache.insert(std::to_string(i), {Value(double(i)), Value(filler)});
  }
  EXPECT_TRUE(cache.lookup("first") == first);
  EXPECT_TRUE(unmoved());

  const auto stats = cache.compact();
  EXPECT_EQ(stats.records_after, 10'001u);
  EXPECT_TRUE(cache.lookup("first") == first);
  EXPECT_TRUE(unmoved());

  const RowRef big = cache.insert("big", {Value(std::string(5u << 20, 'x'))});
  EXPECT_EQ(cache.capped_appends(), 1u); // memory-only
  EXPECT_TRUE(cache.lookup("big") == big);
  EXPECT_EQ(std::get<std::string>(big.decode().at(0)).size(), 5u << 20);
  EXPECT_TRUE(cache.lookup("first") == first);
  EXPECT_TRUE(unmoved());
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

/// FNV-1a (64-bit) over a byte image.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) h = (h ^ std::uint8_t(c)) * 0x100000001b3ull;
  return h;
}

// The file format is a contract: a cache written by any build replays
// under any other. Pin the exact bytes one fixed insert sequence writes —
// every Value tag and its edge cases, an empty row and a rejected
// duplicate — and the bytes compact() writes for the same live set.
TEST(ResultCache, FileImagePinned) {
  const std::string path = temp_path();
  {
    ResultCache cache(path);
    cache.insert("doubles",
                 {Value(-0.0), Value(std::numeric_limits<double>::denorm_min()),
                  Value(std::bit_cast<double>(0x7FF800000000BEEFull)),
                  Value(std::bit_cast<double>(0xFFF8000000000001ull)),
                  Value(std::numeric_limits<double>::infinity()),
                  Value(1.0 / 3.0)});
    cache.insert("ints", {Value(std::numeric_limits<std::int64_t>::min()),
                          Value(std::numeric_limits<std::int64_t>::max()),
                          Value(std::int64_t(-1)), Value(std::int64_t(0))});
    cache.insert("strings", {Value(std::string()),
                             Value(std::string("a\x1f" "b\0c", 5))});
    cache.insert("empty", {});
    cache.insert("ints", {Value(std::int64_t(42))}); // duplicate: dropped
    cache.insert(cache_key("exp", 3, 0xFFFFFFFFFFFFFFFFull, "x=1;y=\x1f"),
                 {Value(std::int64_t(7)), Value(2.5), Value(std::string("z"))});
  }
  const std::string image = read_file(path);
  EXPECT_EQ(image.size(), 274u);
  EXPECT_EQ(fnv1a(image), 0xaf56f78c2de70d13ull);

  // Duplicated on disk, replayed (first write wins) and compacted: the
  // rewrite is the same records in first-insertion order.
  duplicate_records(path);
  {
    ResultCache cache(path);
    EXPECT_EQ(cache.replayed(), 5u);
    const auto stats = cache.compact();
    EXPECT_EQ(stats.records_before, 10u);
    EXPECT_EQ(stats.records_after, 5u);
  }
  const std::string compacted = read_file(path);
  EXPECT_EQ(compacted.size(), 274u);
  EXPECT_EQ(fnv1a(compacted), 0xaf56f78c2de70d13ull);
  std::remove(path.c_str());
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
  const auto ref = reread.lookup("a");
  ASSERT_TRUE(ref);
  const Row got = ref.decode();
  ASSERT_EQ(got.size(), tricky.size());
  EXPECT_EQ(bits_of(std::get<double>(got[0])), bits_of(-0.0));
  EXPECT_EQ(bits_of(std::get<double>(got[1])),
            bits_of(std::numeric_limits<double>::denorm_min()));
  EXPECT_EQ(std::get<std::string>(got[3]), std::string("x\x1f;\0y", 5));
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
  ASSERT_TRUE(cache.lookup("c")); // served from memory

  ResultCache reread(path);
  EXPECT_EQ(reread.replayed(), 2u);
  EXPECT_FALSE(reread.lookup("c"));
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
  EXPECT_TRUE(reread.lookup("d"));
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
  ASSERT_TRUE(cache.lookup("b")); // memory-only, still served
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
  EXPECT_TRUE(reread.lookup("b"));
  EXPECT_TRUE(reread.lookup("d"));
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
    const auto ref = reread.lookup("k" + std::to_string(i));
    ASSERT_TRUE(ref);
    const Row got = ref.decode();
    EXPECT_EQ(bits_of(std::get<double>(got[0])), bits_of(double(i)));
    EXPECT_EQ(bits_of(std::get<double>(got[1])), bits_of(-0.0));
  }
  std::remove(path.c_str());
}

} // namespace
