#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mss::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& lane : s_) lane = splitmix64(x);
  // Avoid the (astronomically unlikely) all-zero state.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

BernoulliTrial::BernoulliTrial(double p)
    : threshold_(!(p > 0.0)   ? 0
                 : p >= 1.0   ? std::uint64_t{1} << 53
                              : static_cast<std::uint64_t>(
                                    std::ceil(p * 0x1.0p53))) {}

void Rng::throw_zero_range() {
  throw std::invalid_argument("uniform_u64: n must be > 0");
}

// See the ZigguratTables declaration in rng.hpp: tables are derived once at
// load time from the canonical N=256 setup constant r (x_1, the base-strip
// boundary); the per-layer area v follows from r as r*f(r) + tail. Layer
// widths X[i] then satisfy f(X[i+1]) = f(X[i]) + v / X[i] with
// f(x) = exp(-x^2/2), which walks the stack to f -> 1 at the top. All table
// entries are plain libm doubles, so sequences stay deterministic for a
// given build like every other Rng transform.
detail::ZigguratTables::ZigguratTables() {
  constexpr double kTwo52 = 4503599627370496.0; // 2^52
  const auto f = [](double x) { return std::exp(-0.5 * x * x); };
  // Per-layer area: base strip r * f(r) plus the tail beyond r.
  const double v =
      kR * f(kR) + std::sqrt(M_PI / 2.0) * std::erfc(kR / std::sqrt(2.0));
  double x[kLayers + 1];
  x[0] = v / f(kR); // virtual width of the base strip (holds the tail)
  x[1] = kR;
  for (int i = 1; i < kLayers; ++i) {
    // The canonical r drives f -> 1 exactly at the top layer; the clamp
    // only absorbs the last-step rounding (a 1+eps argument would NaN).
    x[i + 1] = std::sqrt(-2.0 * std::log(std::min(1.0, f(x[i]) + v / x[i])));
  }
  for (int i = 0; i < kLayers; ++i) {
    wi[i] = x[i] / kTwo52;
    ki[i] = static_cast<std::uint64_t>(kTwo52 * (x[i + 1] / x[i]));
    fi[i] = f(x[i + 1]);
  }
}

// init_priority runs this constructor before every default-priority static
// initializer in the program, so a normal() draw from another translation
// unit's static init cannot observe zeroed tables (which would silently
// return 0.0 draws rather than crash).
#if defined(__GNUC__) || defined(__clang__)
__attribute__((init_priority(101)))
#endif
const detail::ZigguratTables detail::kZiggurat{};

double Rng::normal_slow(std::size_t idx, std::uint64_t sign, double x) {
  const detail::ZigguratTables& z = detail::kZiggurat;
  if (idx == 0) {
    // Base strip overflow: sample the tail beyond r (Marsaglia's
    // exponential method; 1 - uniform() keeps log1p away from -1).
    double xx, yy;
    do {
      xx = -z.inv_r * std::log1p(-uniform());
      yy = -std::log1p(-uniform());
    } while (yy + yy <= xx * xx);
    return detail::with_sign(detail::ZigguratTables::kR + xx, sign);
  }
  // Wedge between layer idx and the one below: accept under the curve,
  // otherwise redraw from scratch.
  if (z.fi[idx] + uniform() * (z.fi[idx - 1] - z.fi[idx]) <
      std::exp(-0.5 * x * x)) {
    return detail::with_sign(x, sign);
  }
  return normal();
}

double Rng::normal(double mean, double sigma) {
  return mean + sigma * normal();
}

double Rng::lognormal_median(double median, double sigma_log) {
  return median * std::exp(sigma_log * normal());
}

double Rng::exponential(double mean) {
  // 1 - uniform() is in (0, 1]: log never sees zero.
  return -mean * std::log(1.0 - uniform());
}

namespace {

// Jump polynomial from the reference Xoshiro256** implementation
// (Blackman & Vigna, prng.di.unimi.it).
constexpr std::uint64_t kJump[4] = {
    0x180ec6d33cfd0abaull, 0xd5a61266f0c9392cull, 0xa9582618e03fc9aaull,
    0x39abdc4529b1661cull};

} // namespace

void Rng::jump() {
  std::array<std::uint64_t, 4> acc{};
  for (const std::uint64_t word : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (word & (1ull << b)) {
        acc[0] ^= s_[0];
        acc[1] ^= s_[1];
        acc[2] ^= s_[2];
        acc[3] ^= s_[3];
      }
      (void)next_u64();
    }
  }
  s_ = acc;
}

std::vector<Rng> Rng::jump_substreams(std::size_t n) {
  std::vector<Rng> streams;
  streams.reserve(n);
  Rng stream = fork(next_u64());
  for (std::size_t c = 0; c < n; ++c) {
    streams.push_back(stream);
    stream.jump();
  }
  return streams;
}

Rng Rng::fork(std::uint64_t label) const {
  std::uint64_t x = s_[0] ^ rotl(s_[2], 13) ^ (label * 0xD6E8FEB86659FD93ull);
  Rng child(0);
  child.s_[0] = splitmix64(x);
  child.s_[1] = splitmix64(x);
  child.s_[2] = splitmix64(x);
  child.s_[3] = splitmix64(x);
  if (child.s_[0] == 0 && child.s_[1] == 0 && child.s_[2] == 0 &&
      child.s_[3] == 0) {
    child.s_[0] = 1;
  }
  return child;
}

} // namespace mss::util
