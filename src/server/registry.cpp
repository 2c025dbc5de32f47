#include "server/registry.hpp"

#include <cmath>
#include <stdexcept>

#include "magpie/scenario.hpp"
#include "nvsim/optimizer.hpp"
#include "sweep/param_space.hpp"
#include "util/rng.hpp"

namespace mss::server {

void Registry::add(sweep::RowExperiment exp) {
  if (exp.id.empty() || !exp.evaluate || exp.columns.empty()) {
    throw std::invalid_argument(
        "Registry::add: experiment needs an id, columns and an evaluate fn");
  }
  if (find(exp.id) != nullptr) {
    throw std::invalid_argument("Registry::add: duplicate id '" + exp.id +
                                "'");
  }
  exps_.push_back(std::move(exp));
}

const sweep::RowExperiment* Registry::find(const std::string& id) const {
  for (const auto& e : exps_) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

Registry Registry::builtin() {
  Registry r;
  r.add(nvsim::servable_explore());
  r.add(magpie::servable_scenario_sweep());
  r.add(demo_mc_tail_experiment());
  return r;
}

sweep::RowExperiment demo_mc_tail_experiment() {
  sweep::RowExperiment exp;
  exp.id = "demo.mc_tail";
  exp.version = 2;
  exp.description =
      "Monte-Carlo Gaussian tail estimate: per point, `samples` standard "
      "normals against `threshold` (cost scales with `samples`)";
  exp.columns = {"samples", "threshold", "p_tail", "mean"};
  exp.default_space = [] {
    sweep::ParamSpace space;
    space.cross(sweep::Axis::list(
             "samples", std::vector<std::int64_t>{1000, 2000, 4000}))
        .cross(sweep::Axis::linear("threshold", 1.0, 3.0, 5));
    return space;
  };
  exp.evaluate = [](const sweep::Point& p,
                    util::Rng& rng) -> std::vector<sweep::Value> {
    const std::int64_t samples = p.integer("samples");
    const double threshold = p.number("threshold");
    if (samples <= 0) {
      throw std::invalid_argument("demo.mc_tail: samples must be positive");
    }
    std::int64_t above = 0;
    double sum = 0.0;
    for (std::int64_t i = 0; i < samples; ++i) {
      const double x = rng.normal();
      sum += x;
      if (x > threshold) ++above;
    }
    return {samples, threshold, double(above) / double(samples),
            sum / double(samples)};
  };
  return exp;
}

} // namespace mss::server
