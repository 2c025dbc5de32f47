#include "nvsim/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sweep/experiment.hpp"

namespace mss::nvsim {

namespace {

double objective_of(Goal goal, const MemoryEstimate& e) {
  switch (goal) {
    case Goal::ReadLatency: return e.read_latency;
    case Goal::WriteLatency: return e.write_latency;
    case Goal::ReadEnergy: return e.read_energy;
    case Goal::WriteEnergy: return e.write_energy;
    case Goal::Area: return e.area;
    case Goal::ReadEdp: return e.read_latency * e.read_energy;
  }
  throw std::invalid_argument("objective_of: bad goal");
}

bool satisfies(const Constraints& c, const MemoryEstimate& e) {
  if (c.max_read_latency && e.read_latency > *c.max_read_latency) return false;
  if (c.max_write_latency && e.write_latency > *c.max_write_latency) return false;
  if (c.max_area && e.area > *c.max_area) return false;
  if (c.max_leakage && e.leakage_power > *c.max_leakage) return false;
  return true;
}

/// Scales a per-mat estimate to the full word access across `m` lock-step
/// mats: latencies gain an H-tree routing factor per fan-out level, total
/// energy sums the mats (each moving word/m bits) plus routing, leakage
/// and area replicate with an H-tree area overhead.
MemoryEstimate scale_to_mats(MemoryEstimate e, std::size_t m) {
  if (m <= 1) return e;
  const double levels = std::log2(double(m));
  const double t_route = 1.0 + 0.04 * levels;
  const double e_route = 1.0 + 0.06 * levels;
  e.read_latency *= t_route;
  e.write_latency *= t_route;
  e.read_energy *= double(m) * e_route;
  e.write_energy *= double(m) * e_route;
  e.leakage_power *= double(m);
  e.area *= double(m) * (1.0 + 0.08 * levels);
  return e;
}

} // namespace

sweep::ParamSpace organisation_space(std::size_t capacity_bits,
                                     std::size_t word_bits,
                                     const std::vector<std::size_t>& mats) {
  if (capacity_bits == 0 || word_bits == 0) {
    throw std::invalid_argument(
        "organisation_space: zero capacity or word width");
  }
  std::vector<std::int64_t> mat_pts;
  std::vector<std::int64_t> row_pts;
  for (const std::size_t m : mats) {
    if (m == 0 || capacity_bits % m != 0 || word_bits % m != 0) continue;
    const std::size_t percap = capacity_bits / m;
    const std::size_t pword = word_bits / m;
    // rows from 64 to 8192, cols = per-mat capacity / rows; power-of-two
    // splits (the seed explore loop, now one (mats, rows) pair per point).
    for (std::size_t rows = 64; rows <= 8192; rows *= 2) {
      if (percap % rows != 0) continue;
      const std::size_t cols = percap / rows;
      if (cols < pword || cols > 16384) continue;
      const double aspect = double(rows) / double(cols);
      if (aspect > 8.0 || aspect < 1.0 / 8.0) continue;
      mat_pts.push_back(std::int64_t(m));
      row_pts.push_back(std::int64_t(rows));
    }
  }
  sweep::ParamSpace space;
  space.zip({sweep::Axis::list("mats", std::move(mat_pts)),
             sweep::Axis::list("rows", std::move(row_pts))});
  return space;
}

std::vector<Candidate> explore(const core::Pdk& pdk,
                               std::size_t capacity_bits,
                               std::size_t word_bits, Goal goal,
                               const ExploreOptions& options) {
  const auto space =
      organisation_space(capacity_bits, word_bits, options.mats);

  const auto exp = sweep::make_experiment(
      "nvsim-explore",
      [&](const sweep::Point& p, util::Rng&) -> Candidate {
        const auto m = std::size_t(p.integer("mats"));
        const auto rows = std::size_t(p.integer("rows"));
        Candidate cand;
        cand.mats = m;
        cand.org.rows = rows;
        cand.org.cols = capacity_bits / m / rows;
        cand.org.word_bits = word_bits / m;
        const ArrayModel model(pdk, cand.org);
        const MemoryEstimate per_mat =
            options.spice_calibrate
                ? model.estimate_spice(options.spice_rows, options.spice_cols)
                : model.estimate();
        cand.estimate = scale_to_mats(per_mat, m);
        cand.objective = objective_of(goal, cand.estimate);
        return cand;
      });

  const sweep::Runner runner({.threads = options.threads, .seed = 0});
  auto all = runner.run(space, exp);

  std::vector<Candidate> out;
  out.reserve(all.size());
  for (auto& cand : all) {
    if (satisfies(options.constraints, cand.estimate)) {
      out.push_back(std::move(cand));
    }
  }
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    if (a.objective != b.objective) return a.objective < b.objective;
    if (a.mats != b.mats) return a.mats < b.mats;
    return a.org.rows < b.org.rows;
  });
  return out;
}

std::optional<Candidate> optimize(const core::Pdk& pdk,
                                  std::size_t capacity_bits,
                                  std::size_t word_bits, Goal goal,
                                  const ExploreOptions& options) {
  auto all = explore(pdk, capacity_bits, word_bits, goal, options);
  if (all.empty()) return std::nullopt;
  return all.front();
}

namespace {

/// Optional integer coordinate with a default — the servable experiment
/// lets clients add capacity/word axes without requiring them.
std::int64_t integer_or(const sweep::Point& p, const std::string& name,
                        std::int64_t fallback) {
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p.name(i) == name) return p.integer(name);
  }
  return fallback;
}

} // namespace

sweep::RowExperiment servable_explore() {
  sweep::RowExperiment exp;
  exp.id = "nvsim.explore";
  exp.version = 1;
  exp.description =
      "NVSim organisation exploration: analytic array estimates per "
      "(mats, rows) split at 45 nm";
  exp.columns = {"mats",         "rows",        "cols",
                 "read_latency", "write_latency", "read_energy",
                 "write_energy", "leakage",     "area",
                 "read_edp"};
  exp.default_space = [] {
    return organisation_space(std::size_t(1) << 20, 512, {1, 2, 4});
  };
  exp.evaluate = [](const sweep::Point& p,
                    util::Rng&) -> std::vector<sweep::Value> {
    static const core::Pdk pdk = core::Pdk::mss45();
    const auto capacity =
        std::size_t(integer_or(p, "capacity_bits", std::int64_t(1) << 20));
    const auto word = std::size_t(integer_or(p, "word_bits", 512));
    const auto m = std::size_t(p.integer("mats"));
    const auto rows = std::size_t(p.integer("rows"));
    if (m == 0 || rows == 0 || capacity % m != 0 || word % m != 0 ||
        (capacity / m) % rows != 0) {
      throw std::invalid_argument("nvsim.explore: infeasible organisation");
    }
    ArrayOrg org;
    org.rows = rows;
    org.cols = capacity / m / rows;
    org.word_bits = word / m;
    const ArrayModel model(pdk, org);
    const MemoryEstimate e = scale_to_mats(model.estimate(), m);
    return {std::int64_t(m),
            std::int64_t(rows),
            std::int64_t(org.cols),
            e.read_latency,
            e.write_latency,
            e.read_energy,
            e.write_energy,
            e.leakage_power,
            e.area,
            e.read_latency * e.read_energy};
  };
  return exp;
}

} // namespace mss::nvsim
