// Small numerical toolbox: the Gaussian upper tail (double precision down
// to ~1e-300, needed for error rates down to 1e-20), root finding,
// log-domain binomial tails and Gauss-Hermite quadrature.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace mss::util {

/// Upper-tail probability Q(x) = 1 - Phi(x), accurate for large x
/// (Q(10) ~ 7.6e-24 is representable; naive 1-Phi would round to 0 at x>8).
[[nodiscard]] double normal_sf(double x);

/// log(1 - exp(x)) for x <= 0, numerically stable near both ends.
[[nodiscard]] double log1mexp(double x);

/// Upper tail of the binomial distribution in the log domain:
/// log P(X > t) where X ~ Binomial(n, p) and log_p = log(p).
/// Exact summation in the log domain; robust for p down to 1e-30 where
/// a linear-domain sum would underflow.
[[nodiscard]] double log_binomial_sf(unsigned n, unsigned t, double log_p);

/// Bisection root finder for a monotonic continuous f on [lo, hi].
/// Requires f(lo) and f(hi) to bracket zero; throws std::invalid_argument
/// otherwise. Runs until the bracket is below `xtol` (relative) or
/// `max_iter` iterations.
[[nodiscard]] double bisect(const std::function<double(double)>& f, double lo,
                            double hi, double xtol = 1e-12,
                            int max_iter = 200);

/// Expands [lo, hi] geometrically upward until f changes sign, then bisects.
/// Useful when only a lower bound of the root is known (e.g. latency-margin
/// solves). Throws if no sign change found within `max_expand` doublings.
[[nodiscard]] double bisect_expand(const std::function<double(double)>& f,
                                   double lo, double hi, double xtol = 1e-12,
                                   int max_expand = 60);

/// Gauss-Hermite quadrature nodes/weights for integrating
/// E[g(Z)] = (1/sqrt(pi)) * sum w_i g(sqrt(2) x_i) with Z ~ N(0,1).
/// Returns `n`-point rule (n in [1, 64]) computed by Golub-Welsch-free
/// Newton iteration on Hermite polynomials.
struct GaussHermite {
  std::vector<double> nodes;   ///< abscissae x_i of the physicists' rule
  std::vector<double> weights; ///< weights w_i of the physicists' rule

  explicit GaussHermite(int n);

  /// E[g(mu + sigma*Z)] with Z ~ N(0,1).
  [[nodiscard]] double expect(const std::function<double(double)>& g,
                              double mu, double sigma) const;
};

} // namespace mss::util
