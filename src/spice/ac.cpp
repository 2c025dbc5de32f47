#include "spice/ac.hpp"

#include <cmath>
#include <stdexcept>

#include "spice/engine.hpp"

namespace mss::spice {

std::complex<double> AcResult::v(const std::string& node,
                                 std::size_t k) const {
  if (node == "0" || node == "gnd" || node == "GND") return {0.0, 0.0};
  const auto it = node_index_.find(node);
  if (it == node_index_.end()) {
    throw std::out_of_range("AcResult: unknown node '" + node + "'");
  }
  return samples_[k][it->second];
}

double AcResult::magnitude(const std::string& node, std::size_t k) const {
  return std::abs(v(node, k));
}

double AcResult::magnitude_db(const std::string& node, std::size_t k) const {
  return 20.0 * std::log10(std::max(1e-300, magnitude(node, k)));
}

double AcResult::phase(const std::string& node, std::size_t k) const {
  return std::arg(v(node, k));
}

std::vector<double> log_sweep(double f_lo, double f_hi, int per_decade) {
  if (f_lo <= 0.0 || f_hi <= f_lo || per_decade < 1) {
    throw std::invalid_argument("log_sweep: bad range");
  }
  std::vector<double> out;
  const double step = std::pow(10.0, 1.0 / per_decade);
  for (double f = f_lo; f <= f_hi * (1.0 + 1e-12); f *= step) {
    out.push_back(f);
  }
  return out;
}

AcResult ac_analysis(Circuit& circuit, const std::vector<double>& freqs,
                     const AcOptions& options) {
  if (freqs.empty()) {
    throw std::invalid_argument("ac_analysis: empty frequency list");
  }
  EngineOptions dc_opt;
  dc_opt.ordering = options.ordering;
  dc_opt.stamp_cache = options.stamp_cache;
  Engine engine(circuit, dc_opt);
  const auto dc = engine.dc();
  if (!dc.converged) {
    throw std::runtime_error("ac_analysis: DC operating point did not converge");
  }
  const Solution op(dc.x);

  const std::size_t dim = circuit.assign_unknowns();
  const std::size_t n_nodes = circuit.node_count();

  AcResult res;
  for (std::size_t k = 0; k < n_nodes; ++k) {
    res.node_index_.emplace(circuit.node_name(k), k);
  }

  // Same assembly protocol as the transient engine, complex-valued: the
  // admittances move with omega, so the solver's value compare refactors
  // once per sweep point while the symbolic structure is reused throughout.
  AcSparseSolver ac_solver;
  ac_solver.set_ordering(options.ordering);
  std::vector<std::complex<double>> rhs(dim);
  std::vector<std::complex<double>> xout(dim);
  GminSlotCache gmin_slots;
  for (double f : freqs) {
    const double omega = 2.0 * M_PI * f;
    ac_solver.begin(dim);
    std::fill(rhs.begin(), rhs.end(), std::complex<double>{});
    AcSystem sys(ac_solver, rhs, options.stamp_cache);
    circuit.stamp_all_ac(sys, op, omega);
    // gmin on every node diagonal; the slots are fixed across the sweep.
    if (options.stamp_cache) {
      gmin_slots.add_all(ac_solver, n_nodes, std::complex<double>(1e-12));
    } else {
      for (std::size_t k = 0; k < n_nodes; ++k) {
        sys.add_g(static_cast<int>(k), static_cast<int>(k), 1e-12);
      }
    }
    if (!ac_solver.solve(rhs, xout)) {
      res.converged_ = false;
      xout.assign(dim, std::complex<double>{});
    }
    res.freqs_.push_back(f);
    res.samples_.push_back(xout);
  }
  return res;
}

} // namespace mss::spice
