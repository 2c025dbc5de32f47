#include "util/math.hpp"

#include <cmath>
#include <stdexcept>

#include "math/special.hpp"

namespace mss::util {

namespace {

/// log of the binomial coefficient C(n, k), k <= n.
double log_binomial(unsigned n, unsigned k) {
  return math::lgamma(double(n) + 1.0) - math::lgamma(double(k) + 1.0) -
         math::lgamma(double(n - k) + 1.0);
}

} // namespace

double normal_sf(double x) { return 0.5 * math::erfc(x / std::sqrt(2.0)); }

double log1mexp(double x) {
  if (x > 0.0) throw std::invalid_argument("log1mexp: x must be <= 0");
  // Split at log(2) per Maechler (2012).
  if (x > -M_LN2) return std::log(-std::expm1(x));
  return std::log1p(-std::exp(x));
}

double log_binomial_sf(unsigned n, unsigned t, double log_p) {
  if (t >= n) return -std::numeric_limits<double>::infinity();
  const double log_q = log1mexp(std::min(0.0, log_p)); // log(1-p)
  // Sum P(X = k) for k = t+1 .. n in the log domain using log-sum-exp.
  double max_term = -std::numeric_limits<double>::infinity();
  std::vector<double> terms;
  terms.reserve(n - t);
  for (unsigned k = t + 1; k <= n; ++k) {
    const double lt = log_binomial(n, k) + double(k) * log_p +
                      double(n - k) * log_q;
    terms.push_back(lt);
    max_term = std::max(max_term, lt);
    // Terms decay geometrically once k >> n*p; stop when negligible.
    if (lt < max_term - 80.0 && k > t + 4) break;
  }
  double sum = 0.0;
  for (double lt : terms) sum += std::exp(lt - max_term);
  return max_term + std::log(sum);
}

double bisect(const std::function<double(double)>& f, double lo, double hi,
              double xtol, int max_iter) {
  double flo = f(lo);
  double fhi = f(hi);
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  if ((flo > 0.0) == (fhi > 0.0)) {
    throw std::invalid_argument("bisect: endpoints do not bracket a root");
  }
  for (int i = 0; i < max_iter; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double fm = f(mid);
    if (fm == 0.0) return mid;
    if ((fm > 0.0) == (flo > 0.0)) {
      lo = mid;
      flo = fm;
    } else {
      hi = mid;
    }
    if ((hi - lo) <= xtol * std::max(1.0, std::abs(mid))) return mid;
  }
  return 0.5 * (lo + hi);
}

double bisect_expand(const std::function<double(double)>& f, double lo,
                     double hi, double xtol, int max_expand) {
  double flo = f(lo);
  double fhi = f(hi);
  int n = 0;
  while ((flo > 0.0) == (fhi > 0.0)) {
    if (++n > max_expand) {
      throw std::invalid_argument(
          "bisect_expand: no sign change within expansion budget");
    }
    lo = hi;
    flo = fhi;
    hi *= 2.0;
    fhi = f(hi);
  }
  return bisect(f, lo, hi, xtol);
}

GaussHermite::GaussHermite(int n) {
  if (n < 1 || n > 64) {
    throw std::invalid_argument("GaussHermite: n must be in [1, 64]");
  }
  nodes.resize(static_cast<std::size_t>(n));
  weights.resize(static_cast<std::size_t>(n));
  // Newton iteration on the physicists' Hermite polynomial H_n; initial
  // guesses per Numerical Recipes.
  const double pi_term = std::pow(M_PI, -0.25);
  double z = 0.0;
  for (int i = 0; i < (n + 1) / 2; ++i) {
    if (i == 0) {
      z = std::sqrt(2.0 * n + 1.0) - 1.85575 * std::pow(2.0 * n + 1.0, -1.0 / 6.0);
    } else if (i == 1) {
      z -= 1.14 * std::pow(double(n), 0.426) / z;
    } else if (i == 2) {
      z = 1.86 * z - 0.86 * nodes[0];
    } else if (i == 3) {
      z = 1.91 * z - 0.91 * nodes[1];
    } else {
      z = 2.0 * z - nodes[static_cast<std::size_t>(i) - 2];
    }
    double pp = 0.0;
    for (int iter = 0; iter < 100; ++iter) {
      double p1 = pi_term;
      double p2 = 0.0;
      for (int j = 0; j < n; ++j) {
        const double p3 = p2;
        p2 = p1;
        p1 = z * std::sqrt(2.0 / (j + 1.0)) * p2 -
             std::sqrt(double(j) / (j + 1.0)) * p3;
      }
      pp = std::sqrt(2.0 * n) * p2;
      const double dz = p1 / pp;
      z -= dz;
      if (std::abs(dz) < 1e-15) break;
    }
    const auto idx = static_cast<std::size_t>(i);
    nodes[idx] = z;
    nodes[static_cast<std::size_t>(n) - 1 - idx] = -z;
    weights[idx] = 2.0 / (pp * pp);
    weights[static_cast<std::size_t>(n) - 1 - idx] = weights[idx];
  }
  // Reverse so nodes ascend (cosmetic, but tests rely on ordering).
  std::vector<double> xs(nodes.rbegin(), nodes.rend());
  std::vector<double> ws(weights.rbegin(), weights.rend());
  nodes = std::move(xs);
  weights = std::move(ws);
}

double GaussHermite::expect(const std::function<double(double)>& g, double mu,
                            double sigma) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    acc += weights[i] * g(mu + sigma * std::sqrt(2.0) * nodes[i]);
  }
  return acc / std::sqrt(M_PI);
}

} // namespace mss::util
