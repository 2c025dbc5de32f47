// Reference LRU cache for the MAGPIE cache tests: the straightforward
// array-of-structs model (one {tag, valid, dirty, lru} record per line, an
// early-return way search, and a victim search that takes the first invalid
// way or else the least recently used one). Test-only: the library's
// `Cache` keeps flat tag/tick/dirty arrays and picks ways branch-free, and
// must reproduce this model's hit levels and counters access for access.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "magpie/cache.hpp"

namespace mss::magpie::oracle {

class RefCache {
 public:
  RefCache(std::size_t capacity_bytes, std::size_t ways,
           std::size_t line_bytes, RefCache* next)
      : ways_(ways), sets_(capacity_bytes / (ways * line_bytes)),
        next_(next) {
    if (capacity_bytes == 0 || ways == 0 || line_bytes == 0 || sets_ == 0 ||
        !std::has_single_bit(line_bytes) || !std::has_single_bit(sets_)) {
      throw std::invalid_argument("RefCache: bad geometry");
    }
    line_shift_ = static_cast<unsigned>(std::countr_zero(line_bytes));
    set_shift_ = static_cast<unsigned>(std::countr_zero(sets_));
    lines_.resize(sets_ * ways_);
  }

  HitLevel access(std::uint64_t addr, bool is_write) {
    const std::uint64_t line_addr = addr >> line_shift_;
    const std::uint64_t set = line_addr & (sets_ - 1);
    const std::uint64_t tag = line_addr >> set_shift_;
    ++(is_write ? stats_.writes : stats_.reads);

    if (Line* hit = find(set, tag)) {
      hit->lru = ++tick_;
      if (is_write) hit->dirty = true;
      return HitLevel::L1;
    }
    ++(is_write ? stats_.write_misses : stats_.read_misses);

    HitLevel below = HitLevel::Memory;
    if (next_ != nullptr) {
      below = next_->access(addr, false) == HitLevel::L1 ? HitLevel::L2
                                                         : HitLevel::Memory;
    }
    Line& v = victim(set);
    if (v.valid && v.dirty) {
      ++stats_.writebacks;
      if (next_ != nullptr) {
        (void)next_->access(((v.tag << set_shift_) | set) << line_shift_,
                            true);
      }
    }
    v = Line{tag, true, is_write, ++tick_};
    return below;
  }

  void flush() {
    for (auto& l : lines_) l = Line{};
    tick_ = 0;
  }

  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru = 0; ///< larger = more recently used
  };

  Line* find(std::uint64_t set, std::uint64_t tag) {
    Line* base = &lines_[set * ways_];
    for (std::size_t w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].tag == tag) return &base[w];
    }
    return nullptr;
  }

  Line& victim(std::uint64_t set) {
    Line* base = &lines_[set * ways_];
    Line* best = base;
    for (std::size_t w = 1; w < ways_; ++w) {
      if (!base[w].valid) return base[w];
      if (base[w].lru < best->lru) best = &base[w];
    }
    return *best;
  }

  std::size_t ways_;
  std::size_t sets_;
  unsigned line_shift_ = 0;
  unsigned set_shift_ = 0;
  RefCache* next_;
  std::vector<Line> lines_; ///< sets_ x ways_ row-major
  std::uint64_t tick_ = 0;
  CacheStats stats_;
};

} // namespace mss::magpie::oracle
