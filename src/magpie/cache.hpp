// Set-associative LRU cache model with hit/miss/writeback accounting —
// the memory-hierarchy half of the gem5 substitute. Latencies are *not*
// applied here; the simulator reads the per-access outcome and applies the
// core's overlap model. Energy counters are accumulated per event.
//
// Layout: three flat sets x ways arrays — tags (an empty way holds a
// sentinel no tag can take), last-use ticks (0 = empty, unique >= 1 once
// filled) and dirty bytes. The way lookup scans every way and selects the
// matching index without an early exit; the victim is the argmin of the
// ticks, which is an empty way whenever one exists and otherwise the LRU
// line. Which way a line sits in never changes an outcome: hits, misses
// and writebacks depend only on the set's contents and their recency.
#pragma once

#include <cstdint>
#include <vector>

namespace mss::magpie {

/// Access outcome, *relative to the cache that was called*: L1 = hit in
/// this cache, L2 = hit one level below it, Memory = the fill came from
/// main memory. When the simulator calls the core-side L1, the value reads
/// naturally as the absolute hit level.
enum class HitLevel { L1, L2, Memory };

/// Counter block shared by the simulator and the energy model.
struct CacheStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t writebacks = 0; ///< dirty evictions pushed to the next level

  [[nodiscard]] std::uint64_t accesses() const { return reads + writes; }
  [[nodiscard]] std::uint64_t misses() const {
    return read_misses + write_misses;
  }
  [[nodiscard]] double miss_rate() const {
    const auto a = accesses();
    return a ? double(misses()) / double(a) : 0.0;
  }
};

/// One set-associative, write-back, write-allocate cache level.
class Cache {
 public:
  /// `next` may be nullptr (last level before memory).
  Cache(std::size_t capacity_bytes, std::size_t ways,
        std::size_t line_bytes, Cache* next);

  /// Performs an access; returns where it hit. Fills on miss (allocating in
  /// this level and recursively below), performs dirty writebacks into the
  /// next level.
  HitLevel access(std::uint64_t addr, bool is_write);

  /// Invalidate-all (used between kernels).
  void flush();

  /// Event counters.
  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  /// Resets counters (content preserved).
  void reset_stats() { stats_ = CacheStats{}; }

  /// Geometry accessors.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t ways() const { return ways_; }
  [[nodiscard]] std::size_t sets() const { return sets_; }

 private:
  /// Tag of an empty way. A tag is the address shifted right by
  /// line_shift_ + set_shift_ >= 1 bits (the constructor rejects a one-set
  /// cache of one-byte lines), so no stored tag is all ones.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  std::size_t capacity_;
  std::size_t ways_;
  std::size_t sets_;
  unsigned line_shift_ = 0;
  unsigned set_shift_ = 0;
  Cache* next_;
  std::vector<std::uint64_t> tags_;  ///< sets_ x ways_ row-major
  std::vector<std::uint64_t> ticks_; ///< last use; 0 = empty way
  std::vector<std::uint8_t> dirty_;  ///< 0 for clean and empty ways
  std::uint64_t tick_ = 0;
  CacheStats stats_;
};

} // namespace mss::magpie
