// Synthetic Parsec-3.0-like kernels and their deterministic trace
// generators — the workload side of the gem5 substitute.
//
// The paper's MAGPIE evaluation runs Parsec 3.0 on an Exynos 5 Octa
// big.LITTLE model ("Applications based on MiBench & SPEC2000/2006" for the
// broader flow). We cannot ship those suites, so each kernel is modelled by
// the memory behaviour that matters to the L2-technology comparison:
// instruction count, memory-instruction ratio, write ratio, a *hot*
// working set revisited with temporal locality (cache-capacity sensitive),
// and a *streaming* region (capacity insensitive). The per-kernel
// parameters are chosen to reproduce the qualitative behaviours reported
// for the suite (bodytrack: mid-size working set; streamcluster:
// streaming; fluidanimate/x264: write-heavy; swaptions/blackscholes:
// compute-bound).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace mss::magpie {

/// Static description of one kernel.
struct KernelParams {
  std::string name;
  std::uint64_t instructions = 500'000; ///< per thread
  double mem_ratio = 0.30;   ///< fraction of instructions touching memory
  double write_ratio = 0.30; ///< fraction of memory ops that are stores
  std::size_t hot_bytes = 512 * 1024;  ///< hot working set (per cluster)
  std::size_t stream_bytes = 8u << 20; ///< streaming region (per thread)
  double hot_fraction = 0.8; ///< probability a memory op hits the hot set
  double shared_fraction = 0.5; ///< hot accesses going to the shared region
  /// Real kernels are strongly skewed: most hot references land in a small
  /// "core" slice that fits any cache level; only the tail sweeps the full
  /// hot set and is therefore L2-capacity sensitive.
  double hot_core_fraction = 0.85;      ///< hot refs going to the core slice
  std::size_t hot_core_bytes = 64 * 1024; ///< size of the core slice
};

/// The kernel set used in the Fig. 11 / Fig. 12 reproduction.
[[nodiscard]] std::vector<KernelParams> parsec_kernels();

/// Looks up a kernel by name; throws std::out_of_range when unknown.
[[nodiscard]] KernelParams kernel_by_name(const std::string& name);

/// One memory reference.
struct MemRef {
  std::uint64_t addr = 0;
  bool is_write = false;
};

/// Deterministic per-thread access-stream generator. Interleaves hot-set
/// references (random within the hot region, half shared across the
/// cluster's threads) with streaming references (sequential lines through a
/// large private region).
class TraceGenerator {
 public:
  /// `thread_id` individualises the private regions and the RNG stream;
  /// `seed` individualises the kernel run. Throws std::invalid_argument when
  /// a region the probabilities can reach is empty: `stream_bytes == 0`
  /// with `hot_fraction < 1`, or a zero `hot_core_bytes` / `hot_bytes` that
  /// a hot-core or shared hot-tail reference would draw from.
  TraceGenerator(KernelParams kernel, unsigned thread_id,
                 std::uint64_t seed = 0xC0FFEE);

  /// Next memory reference.
  [[nodiscard]] MemRef next();

  /// Total memory references this thread will issue for the kernel.
  [[nodiscard]] std::uint64_t total_refs() const;

  /// The kernel parameters.
  [[nodiscard]] const KernelParams& kernel() const { return kernel_; }

 private:
  // Address-space layout (per cluster): shared hot | private hot slices |
  // private streams.
  static constexpr std::uint64_t kSharedBase = 0x1000'0000;
  static constexpr std::uint64_t kPrivateHotBase = 0x4000'0000;
  static constexpr std::uint64_t kStreamBase = 0x8000'0000;

  KernelParams kernel_;
  mss::util::Rng rng_;
  // The kernel's per-reference trials, as integer draw thresholds.
  mss::util::BernoulliTrial write_;
  mss::util::BernoulliTrial hot_;
  mss::util::BernoulliTrial core_;
  mss::util::BernoulliTrial shared_;
  std::uint64_t core_bytes_;     ///< hot-core slice: min(hot_core, hot)
  std::uint64_t slice_bytes_;    ///< private hot-tail slice per thread
  std::uint64_t private_base_;   ///< this thread's private hot slice
  std::uint64_t stream_base_;    ///< this thread's streaming region
  std::uint64_t stream_off_ = 0; ///< walk position, < stream_bytes
};

} // namespace mss::magpie
