// Deterministic random number generation.
//
// All stochastic code paths in the library (thermal fields, Monte Carlo
// process variation, synthetic workload traces) draw from explicitly seeded
// Xoshiro256** streams so that every test, bench and example is
// bit-reproducible across runs and platforms.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mss::util {

namespace detail {

/// 256-layer ziggurat tables for the standard normal (Marsaglia & Tsang
/// 2000). Built once at load time in rng.cpp; the draw fast path lives in
/// `Rng::normal` so it inlines into the hot kernels.
struct ZigguratTables {
  static constexpr int kLayers = 256;
  /// x_1, the base-strip boundary of the canonical N=256 construction.
  static constexpr double kR = 3.6541528853610087963519472518;
  double inv_r = 1.0 / kR;
  double wi[kLayers];        ///< x = rabs * wi[idx]
  std::uint64_t ki[kLayers]; ///< accept when rabs < ki[idx]
  double fi[kLayers];        ///< f at the upper edge of layer idx

  ZigguratTables();
};

/// The process-wide tables (plain global: no per-call init guard).
extern const ZigguratTables kZiggurat;

/// The ziggurat's one sign rule: `x` with its sign bit XORed by `sign`
/// (0 or 1), so sign 1 gives exactly `-x` (including -0.0 for x == 0).
/// Branch-free on purpose; see `Rng::normal`.
inline double with_sign(double x, std::uint64_t sign) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^ (sign << 63));
}

} // namespace detail

/// Xoshiro256** 1.0 (Blackman & Vigna). Small, fast, and — unlike
/// std::mt19937 distributions — we own the normal/uniform transforms, so
/// sequences are stable across standard library implementations. The draw
/// fast paths are header-inline: they sit three calls deep in every
/// Monte-Carlo hot loop (3 thermal-field normals per LLG step per
/// trajectory) and in the MAGPIE trace generator (2-5 Bernoulli and
/// uniform_u64 draws per memory reference), where an out-of-line call per
/// draw is measurable.
class Rng {
 public:
  /// Seeds the four 64-bit lanes from a single seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform() { return double(next_u64() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n) (n > 0; throws std::invalid_argument for
  /// n == 0): the high word of the 128-bit product of one draw and n, a
  /// Lemire-style rejection-free mapping (tiny bias < 2^-64, irrelevant for
  /// simulation use).
  std::uint64_t uniform_u64(std::uint64_t n) {
    if (n == 0) [[unlikely]] throw_zero_range();
    const unsigned __int128 m =
        static_cast<unsigned __int128>(next_u64()) * n;
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Standard normal via the 256-layer ziggurat: one u64 draw (8 bits of
  /// layer index, 1 sign bit, 52 bits of magnitude), one table compare and
  /// one multiply on ~99% of calls; wedge and tail rejections take the
  /// out-of-line slow path. The sign bit is XORed into the result
  /// (`detail::with_sign`) rather than chosen by a `sign ? -x : x`
  /// ternary: the bit is a coin flip, so a branch on it mispredicts half
  /// the time, at more cost than the rest of the fast path.
  double normal() {
    const detail::ZigguratTables& z = detail::kZiggurat;
    const std::uint64_t bits = next_u64();
    const std::size_t idx = bits & 0xffu;
    const std::uint64_t rest = bits >> 8;
    const std::uint64_t sign = rest & 1u;
    const std::uint64_t rabs = (rest >> 1) & 0xfffffffffffffull;
    const double x = double(rabs) * z.wi[idx];
    if (rabs < z.ki[idx]) return detail::with_sign(x, sign); // ~99% of draws
    return normal_slow(idx, sign, x);
  }

  /// Normal with given mean and standard deviation.
  double normal(double mean, double sigma);

  /// Log-normal such that the *median* is `median` and log-space sigma is
  /// `sigma_log`. (Process parameters like RA product are multiplicative.)
  double lognormal_median(double median, double sigma_log);

  /// Bernoulli trial with probability p: one uniform() draw, true when it
  /// falls below p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Exponential with given mean (inverse-CDF).
  double exponential(double mean);

  /// Creates an independent child stream (jump-free: reseeds via SplitMix of
  /// the current state and the label). Deterministic given (parent seed, label).
  [[nodiscard]] Rng fork(std::uint64_t label) const;

  /// Advances the state by 2^128 steps (standard Xoshiro256** jump
  /// polynomial): from one seed, `jump()` partitions the period into up to
  /// 2^128 provably non-overlapping substreams of 2^128 draws each — one per
  /// parallel worker.
  void jump();

  /// Derives `n` independent deterministic substreams for parallel work:
  /// advances this stream once (so consecutive calls see fresh randomness),
  /// forks a base stream from the drawn label, and strides it with `jump()`
  /// — substream c starts 2^128 * c draws into the base. Substream c is a
  /// pure function of (state on entry, c), never of the thread count.
  ///
  /// Granularity: the Monte-Carlo kernels key substreams **per trajectory /
  /// per sample** (n = the trajectory count), not per scheduling chunk.
  /// That makes every statistic a pure function of (seed, n): invariant to
  /// the thread count, to the chunk size, *and* to the SIMD batch width —
  /// lane k of a batched kernel simply draws from trajectory k's stream.
  [[nodiscard]] std::vector<Rng> jump_substreams(std::size_t n);

  /// Batched normal draws for the SIMD trajectory kernels: fills `out[k]`
  /// with the next standard normal of `lanes[k]` for every lane whose bit
  /// is set in `mask` (lanes with a clear bit draw nothing and keep their
  /// `out` value). Lane k's sequence is exactly what sequential scalar
  /// `lanes[k].normal()` calls produce — bit-for-bit — so the batch width
  /// is statistically invisible. The ziggurat lookup is inherently scalar
  /// per lane; the vectorization win lives in the integrator arithmetic
  /// around it.
  template <std::size_t W>
  static void normal_batch(Rng* lanes, double* out,
                           std::uint32_t mask = ~0u) {
    static_assert(W <= 32, "mask covers at most 32 lanes");
    for (std::size_t k = 0; k < W; ++k) {
      if (mask & (1u << k)) out[k] = lanes[k].normal();
    }
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// uniform_u64's n == 0 error, kept out of line.
  [[noreturn]] static void throw_zero_range();

  /// Ziggurat wedge/tail rejection path (rng.cpp); on a wedge miss it
  /// redraws via `normal()`, which consumes exactly the same stream
  /// sequence as the classic retry loop.
  double normal_slow(std::size_t idx, std::uint64_t sign, double x);

  std::array<std::uint64_t, 4> s_{};
};

/// A Bernoulli trial of fixed probability p as an integer compare: the
/// 53-bit draw k behind Rng::uniform() is k * 2^-53, exact, so
/// `uniform() < p` holds iff k < ceil(p * 2^53) (clamped to [0, 2^53]; a
/// NaN p gives 0). `trial(rng)` therefore consumes one draw and returns
/// exactly `rng.bernoulli(p)`, without the int-to-double conversion, for
/// hot loops that test the same p over and over.
class BernoulliTrial {
 public:
  explicit BernoulliTrial(double p);

  bool operator()(Rng& rng) const {
    return (rng.next_u64() >> 11) < threshold_;
  }

 private:
  std::uint64_t threshold_;
};

} // namespace mss::util
