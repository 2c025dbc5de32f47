#include "magpie/workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace mss::magpie {

std::vector<KernelParams> parsec_kernels() {
  // {name, instr/thread, mem, wr, hot bytes, stream bytes, hot frac,
  //  shared, hot-core frac, hot-core bytes}
  return {
      {"blackscholes", 400'000, 0.20, 0.25, 16u << 10, 2u << 20, 0.92, 0.3,
       0.90, 16u << 10},
      {"bodytrack", 500'000, 0.30, 0.30, 1280u << 10, 8u << 20, 0.88, 0.7,
       0.70, 64u << 10},
      {"canneal", 400'000, 0.35, 0.15, 12u << 20, 32u << 20, 0.65, 0.8,
       0.55, 64u << 10},
      {"ferret", 450'000, 0.28, 0.20, 256u << 10, 4u << 20, 0.82, 0.5,
       0.82, 64u << 10},
      {"fluidanimate", 500'000, 0.32, 0.45, 768u << 10, 6u << 20, 0.80, 0.6,
       0.85, 64u << 10},
      {"freqmine", 450'000, 0.30, 0.20, 1536u << 10, 4u << 20, 0.85, 0.7,
       0.72, 64u << 10},
      {"streamcluster", 500'000, 0.35, 0.10, 64u << 10, 16u << 20, 0.40, 0.4,
       0.85, 64u << 10},
      {"swaptions", 400'000, 0.18, 0.25, 32u << 10, 1u << 20, 0.93, 0.2,
       0.92, 32u << 10},
      {"x264", 500'000, 0.25, 0.35, 640u << 10, 8u << 20, 0.75, 0.5,
       0.78, 64u << 10},
  };
}

KernelParams kernel_by_name(const std::string& name) {
  for (const auto& k : parsec_kernels()) {
    if (k.name == name) return k;
  }
  throw std::out_of_range("kernel_by_name: unknown kernel '" + name + "'");
}

namespace {

/// `c ? a : b` through a mask: for a coin-flip `c` a branch mispredicts
/// often, and compilers turn a plain ternary back into one.
std::uint64_t select(bool c, std::uint64_t a, std::uint64_t b) {
  const std::uint64_t mask = std::uint64_t{0} - std::uint64_t{c};
  return b ^ ((a ^ b) & mask);
}

} // namespace

TraceGenerator::TraceGenerator(KernelParams kernel, unsigned thread_id,
                               std::uint64_t seed)
    : kernel_(std::move(kernel)),
      rng_(seed ^ (0x9E37'79B9'7F4A'7C15ull * (thread_id + 1))),
      write_(kernel_.write_ratio), hot_(kernel_.hot_fraction),
      core_(kernel_.hot_core_fraction), shared_(kernel_.shared_fraction),
      core_bytes_(std::min<std::uint64_t>(kernel_.hot_core_bytes,
                                          kernel_.hot_bytes)),
      slice_bytes_(std::max<std::uint64_t>(kernel_.hot_bytes / 8, 4096)),
      private_base_(kPrivateHotBase +
                    std::uint64_t(thread_id) * (slice_bytes_ + (1u << 20))),
      stream_base_(kStreamBase + std::uint64_t(thread_id) *
                                     (kernel_.stream_bytes + (16u << 20))) {
  // bernoulli(p) draws u in [0, 1) and returns u < p: true is reachable iff
  // p > 0, false iff !(p >= 1) (a NaN p always returns false).
  const auto can_pass = [](double p) { return p > 0.0; };
  const auto can_fail = [](double p) { return !(p >= 1.0); };
  const KernelParams& k = kernel_;
  if (can_fail(k.hot_fraction) && k.stream_bytes == 0) {
    throw std::invalid_argument("TraceGenerator: kernel '" + k.name +
                                "' streams (hot_fraction < 1) but "
                                "stream_bytes is 0");
  }
  if (can_pass(k.hot_fraction)) {
    if (can_pass(k.hot_core_fraction) && core_bytes_ == 0) {
      throw std::invalid_argument("TraceGenerator: kernel '" + k.name +
                                  "' draws from an empty hot-core slice "
                                  "(hot_core_bytes or hot_bytes is 0)");
    }
    if (can_fail(k.hot_core_fraction) && can_pass(k.shared_fraction) &&
        k.hot_bytes == 0) {
      throw std::invalid_argument("TraceGenerator: kernel '" + k.name +
                                  "' draws shared hot-tail references but "
                                  "hot_bytes is 0");
    }
  }
}

std::uint64_t TraceGenerator::total_refs() const {
  return static_cast<std::uint64_t>(
      std::llround(double(kernel_.instructions) * kernel_.mem_ratio));
}

MemRef TraceGenerator::next() {
  MemRef ref;
  ref.is_write = write_(rng_);
  if (hot_(rng_)) {
    // Most hot references land in the small core slice (fits every cache);
    // only the tail sweeps the full hot set and feels the L2 capacity.
    if (core_(rng_)) {
      ref.addr =
          kSharedBase + (rng_.uniform_u64(core_bytes_) & ~std::uint64_t{7});
      return ref;
    }
    // Hot-tail access: a shared region of `hot_bytes` plus per-thread
    // private slices of hot_bytes/8 (total cluster footprint ~ 1.5x
    // hot_bytes for four threads). Either side takes one offset draw, so
    // the region is selected rather than branched to.
    const bool shared = shared_(rng_);
    const std::uint64_t base = select(shared, kSharedBase, private_base_);
    const std::uint64_t size =
        select(shared, kernel_.hot_bytes, slice_bytes_);
    ref.addr = base + (rng_.uniform_u64(size) & ~std::uint64_t{7});
  } else {
    // Streaming access: sequential 8-byte strides through the private
    // region, wrapping at its end (the constructor checked that a kernel
    // that streams has a non-empty region).
    ref.addr = stream_base_ + stream_off_;
    stream_off_ += 8;
    while (stream_off_ >= kernel_.stream_bytes) {
      stream_off_ -= kernel_.stream_bytes;
    }
  }
  return ref;
}

} // namespace mss::magpie
