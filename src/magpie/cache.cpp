#include "magpie/cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace mss::magpie {

Cache::Cache(std::size_t capacity_bytes, std::size_t ways,
             std::size_t line_bytes, Cache* next)
    : capacity_(capacity_bytes), ways_(ways),
      sets_(ways && line_bytes ? capacity_bytes / (ways * line_bytes) : 0),
      next_(next) {
  if (capacity_ == 0 || ways_ == 0 || line_bytes == 0 || sets_ == 0) {
    throw std::invalid_argument("Cache: bad geometry");
  }
  if (!std::has_single_bit(line_bytes) || !std::has_single_bit(sets_)) {
    throw std::invalid_argument("Cache: line size and set count must be powers of two");
  }
  if (line_bytes == 1 && sets_ == 1) {
    throw std::invalid_argument(
        "Cache: a one-set cache needs lines of at least two bytes");
  }
  line_shift_ = static_cast<unsigned>(std::countr_zero(line_bytes));
  set_shift_ = static_cast<unsigned>(std::countr_zero(sets_));
  tags_.assign(sets_ * ways_, kEmpty);
  ticks_.assign(sets_ * ways_, 0);
  dirty_.assign(sets_ * ways_, 0);
}

HitLevel Cache::access(std::uint64_t addr, bool is_write) {
  const std::uint64_t line_addr = addr >> line_shift_;
  const std::uint64_t set = line_addr & (sets_ - 1);
  const std::uint64_t tag = line_addr >> set_shift_;
  const std::size_t base = set * ways_;
  std::uint64_t* tags = &tags_[base];
  std::uint64_t* ticks = &ticks_[base];
  std::uint8_t* dirty = &dirty_[base];

  // Counted without branching on is_write, a coin flip per access.
  stats_.writes += is_write;
  stats_.reads += !is_write;

  // A tag sits in at most one way of its set: select its index (ways_ when
  // absent) over every way rather than branching out of the scan.
  std::size_t hit = ways_;
  for (std::size_t w = 0; w < ways_; ++w) hit = tags[w] == tag ? w : hit;
  if (hit != ways_) {
    ticks[hit] = ++tick_;
    dirty[hit] |= static_cast<std::uint8_t>(is_write);
    return HitLevel::L1; // "hit at this level"; caller maps to depth
  }

  stats_.write_misses += is_write;
  stats_.read_misses += !is_write;

  // Miss: fetch from below (read), then allocate here.
  HitLevel below = HitLevel::Memory;
  if (next_ != nullptr) {
    const HitLevel b = next_->access(addr, /*is_write=*/false);
    below = b == HitLevel::L1 ? HitLevel::L2 : HitLevel::Memory;
  }

  // Victim: the way with the smallest tick — an empty way (tick 0) if the
  // set has one, else the least recently used line.
  std::size_t v = 0;
  std::uint64_t oldest = ticks[0];
  for (std::size_t w = 1; w < ways_; ++w) {
    const bool older = ticks[w] < oldest;
    oldest = older ? ticks[w] : oldest;
    v = older ? w : v;
  }
  if (dirty[v] != 0) {
    ++stats_.writebacks;
    if (next_ != nullptr) {
      // Reconstruct the victim's address and push it down as a write.
      const std::uint64_t victim_line = (tags[v] << set_shift_) | set;
      (void)next_->access(victim_line << line_shift_, /*is_write=*/true);
    }
  }
  tags[v] = tag;
  ticks[v] = ++tick_;
  dirty[v] = static_cast<std::uint8_t>(is_write);
  return below;
}

void Cache::flush() {
  std::fill(tags_.begin(), tags_.end(), kEmpty);
  std::fill(ticks_.begin(), ticks_.end(), 0);
  std::fill(dirty_.begin(), dirty_.end(), 0);
  tick_ = 0;
}

} // namespace mss::magpie
