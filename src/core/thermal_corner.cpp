#include "core/thermal_corner.hpp"

#include <cmath>
#include <stdexcept>

#include "core/compact_model.hpp"
#include "sweep/experiment.hpp"

namespace mss::core {

MtjParams scale_to_temperature(const MtjParams& base, double t_k,
                               const ThermalScaling& law) {
  if (t_k <= 0.0 || t_k >= law.curie_k) {
    throw std::invalid_argument(
        "scale_to_temperature: T must be in (0, Tc)");
  }
  auto bloch = [&](double t) {
    return 1.0 - std::pow(t / law.curie_k, law.ms_bloch_exp);
  };
  const double m_rel = bloch(t_k) / bloch(law.reference_k);

  MtjParams p = base;
  p.temperature = t_k;
  p.ms = base.ms * m_rel;
  p.k_i = base.k_i * std::pow(m_rel, law.ki_exp);
  const double derate =
      1.0 - law.tmr_derate_per_k * (t_k - law.reference_k);
  p.tmr0 = std::max(0.1, base.tmr0 * derate);
  return p;
}

TempCorner evaluate_corner(const MtjParams& base, double t_k, double v_read,
                           const ThermalScaling& law) {
  TempCorner c;
  c.temperature_k = t_k;
  c.params = scale_to_temperature(base, t_k, law);
  c.params.validate();
  c.delta = c.params.delta();
  c.ic0 = c.params.ic0();
  c.tmr = c.params.tmr0;

  const MtjCompactModel model(c.params);
  c.retention_years = model.retention_time() / (365.25 * 24.0 * 3600.0);
  const double ip = model.read_current(MtjState::Parallel, v_read);
  const double iap = model.read_current(MtjState::Antiparallel, v_read);
  c.read_margin_rel = (ip - iap) / ip;
  return c;
}

std::vector<TempCorner> temperature_sweep(const MtjParams& base,
                                          const std::vector<double>& temps_k,
                                          double v_read,
                                          const ThermalScaling& law,
                                          std::size_t threads) {
  namespace sw = mss::sweep;
  sw::ParamSpace space;
  space.cross(sw::Axis::list("temperature_k", temps_k));
  const auto exp = sw::make_experiment(
      "thermal-corner",
      [&](const sw::Point& p, util::Rng&) {
        return evaluate_corner(base, p.number("temperature_k"), v_read, law);
      });
  const sw::Runner runner({.threads = threads, .seed = 0});
  return runner.run(space, exp);
}

} // namespace mss::core
