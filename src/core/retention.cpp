#include "core/retention.hpp"

#include <cmath>
#include <stdexcept>

#include "core/compact_model.hpp"
#include "math/special.hpp"
#include "sweep/experiment.hpp"
#include "util/math.hpp"

namespace mss::core {

namespace {
constexpr double kSecondsPerYear = 365.25 * 24.0 * 3600.0;
constexpr double kDiameterLo = 10e-9;
constexpr double kDiameterHi = 200e-9;
} // namespace

RetentionDesigner::RetentionDesigner(MtjParams base, double write_overdrive)
    : base_(base), write_overdrive_(write_overdrive) {
  if (write_overdrive_ <= 1.0) {
    throw std::invalid_argument(
        "RetentionDesigner: write overdrive must exceed 1 (precessional writes)");
  }
}

double RetentionDesigner::delta_for_retention(double years, double fail_prob,
                                              std::size_t array_bits,
                                              unsigned correctable) const {
  if (years <= 0.0 || fail_prob <= 0.0 || fail_prob >= 1.0 || array_bits == 0) {
    throw std::invalid_argument("delta_for_retention: bad spec");
  }
  if (correctable >= array_bits) {
    throw std::invalid_argument(
        "delta_for_retention: correctable must be < array_bits");
  }
  const double t = years * kSecondsPerYear;
  double p1;
  if (correctable == 0) {
    // Per-bit budget p1 = 1 - (1-p)^(1/N) ~ p/N; require
    // 1 - exp(-t/tau) <= p1.
    p1 = fail_prob / double(array_bits);
  } else {
    // ECC-aware budget: bit flips are rare and independent, so the
    // flipped-bit count over the array is Poisson(lambda = N p1), and the
    // array fails only past the correction strength:
    //   P(X > c) = math::gamma_p(c + 1, lambda)  (Poisson tail identity).
    // Solve the monotone tail for the admissible lambda, then spread it
    // back over the bits.
    const double a = double(correctable) + 1.0;
    const double lambda = mss::util::bisect_expand(
        [&](double lam) { return mss::math::gamma_p(a, lam) - fail_prob; },
        0.0, 1e-9, 1e-13);
    p1 = lambda / double(array_bits);
  }
  const double tau_needed = t / (-std::log1p(-p1));
  return std::log(tau_needed / base_.tau0);
}

double RetentionDesigner::diameter_for_delta(double target_delta) const {
  MtjParams p = base_;
  auto delta_at = [&p](double d) mutable {
    p.diameter = d;
    return p.delta();
  };
  const double lo = delta_at(kDiameterLo);
  const double hi = delta_at(kDiameterHi);
  if (target_delta < lo || target_delta > hi) {
    throw std::invalid_argument(
        "diameter_for_delta: target Delta unreachable in [10nm, 200nm]");
  }
  return mss::util::bisect(
      [&](double d) { return delta_at(d) - target_delta; }, kDiameterLo,
      kDiameterHi, 1e-12);
}

RetentionDesign RetentionDesigner::design(double years, double fail_prob,
                                          std::size_t array_bits,
                                          unsigned correctable) const {
  RetentionDesign out;
  out.retention_years = years;
  out.correctable = correctable;
  out.required_delta =
      delta_for_retention(years, fail_prob, array_bits, correctable);
  out.diameter = diameter_for_delta(out.required_delta);

  MtjParams p = base_;
  p.diameter = out.diameter;
  const MtjCompactModel model(p);
  // P -> AP is the harder direction; design the write path for it.
  out.ic0 = model.critical_current(WriteDirection::ToAntiparallel);
  out.write_current = write_overdrive_ * out.ic0;
  out.switching_time =
      model.switching_time(WriteDirection::ToAntiparallel, out.write_current);
  out.write_energy = model.write_energy(WriteDirection::ToAntiparallel,
                                        out.write_current,
                                        1.5 * out.switching_time);
  return out;
}

std::vector<RetentionDesign> RetentionDesigner::sweep(
    const std::vector<double>& years_list, double fail_prob,
    std::size_t array_bits, std::size_t threads,
    unsigned correctable) const {
  namespace sw = mss::sweep;
  sw::ParamSpace space;
  space.cross(sw::Axis::list("years", years_list));
  const auto exp = sw::make_experiment(
      "retention-design",
      [&](const sw::Point& p, util::Rng&) {
        return design(p.number("years"), fail_prob, array_bits, correctable);
      });
  const sw::Runner runner({.threads = threads, .seed = 0});
  return runner.run(space, exp);
}

} // namespace mss::core
