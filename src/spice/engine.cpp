#include "spice/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "spice/elements.hpp"

namespace mss::spice {

std::size_t TransientResult::idx_of_node(const std::string& node) const {
  auto it = node_index_.find(node);
  if (it == node_index_.end()) {
    throw std::out_of_range("TransientResult: unknown node '" + node + "'");
  }
  return it->second;
}

std::size_t TransientResult::idx_of_source(const std::string& vsource) const {
  auto it = source_branch_.find(vsource);
  if (it == source_branch_.end()) {
    throw std::out_of_range("TransientResult: unknown source '" + vsource +
                            "'");
  }
  return it->second;
}

double TransientResult::v(const std::string& node, std::size_t k) const {
  if (node == "0" || node == "gnd" || node == "GND") return 0.0;
  return samples_[k][idx_of_node(node)];
}

std::vector<double> TransientResult::voltage(const std::string& node) const {
  std::vector<double> out(times_.size());
  for (std::size_t k = 0; k < times_.size(); ++k) out[k] = v(node, k);
  return out;
}

double TransientResult::i(const std::string& vsource, std::size_t k) const {
  return samples_[k][idx_of_source(vsource)];
}

std::vector<double> TransientResult::current(
    const std::string& vsource) const {
  std::vector<double> out(times_.size());
  const std::size_t idx = idx_of_source(vsource);
  for (std::size_t k = 0; k < times_.size(); ++k) out[k] = samples_[k][idx];
  return out;
}

bool TransientResult::has_node(const std::string& node) const {
  return node == "0" || node == "gnd" || node == "GND" ||
         node_index_.count(node) > 0;
}

bool TransientResult::has_source(const std::string& vsource) const {
  return source_branch_.count(vsource) > 0;
}

Engine::Engine(Circuit& circuit, EngineOptions options)
    : ckt_(circuit), opt_(options) {}

bool Engine::solve(std::vector<double>& x, const StampContext& ctx,
                   std::size_t dim) {
  const std::size_t n_nodes = ckt_.node_count();
  // Scanned every solve (allocation-free) so element-set changes between
  // analyses cannot leave a stale linearity assumption.
  const bool any_nonlinear = ckt_.any_nonlinear();
  const int iters = any_nonlinear ? opt_.max_newton : 1;

  for (int it = 0; it < iters; ++it) {
    solver_.begin(dim);
    rhs_.assign(dim, 0.0);
    MnaSystem sys(solver_, rhs_);
    ckt_.stamp_all(sys, Solution(x), ctx);
    // gmin to ground on every node row keeps floating nodes solvable; the
    // diagonal slots are cached like any element's stamp positions.
    gmin_slots_.add_all(solver_, n_nodes, opt_.gmin);

    // The solver's dirty-stamp cache handles both regimes: a linear circuit
    // restamps identical values on every step (only sources and companion
    // histories move the RHS) and back-substitutes against the cached
    // factorization; nonlinear stamps change per iteration and refactor —
    // partially, when only late-ordered device columns moved.
    if (!solver_.solve(rhs_, x_new_)) return false;

    if (!any_nonlinear) {
      x = x_new_;
      return true;
    }

    // Damped update + convergence check.
    double worst = 0.0;
    for (std::size_t k = 0; k < dim; ++k) {
      double dxk = x_new_[k] - x[k];
      if (k < n_nodes) {
        dxk = std::clamp(dxk, -opt_.damping, opt_.damping);
      }
      x[k] += dxk;
      worst = std::max(worst, std::abs(dxk) / std::max(1.0, std::abs(x[k])));
    }
    if (worst <= opt_.vtol) return true;
  }
  return false;
}

DcResult Engine::dc() {
  const std::size_t dim = ckt_.assign_unknowns();
  DcResult out;
  out.x.assign(dim, 0.0);
  StampContext ctx;
  ctx.kind = AnalysisKind::Dc;
  ctx.t = 0.0;
  ctx.dt = 0.0;
  out.converged = solve(out.x, ctx, dim);
  return out;
}

void Engine::commit_all(const std::vector<double>& x,
                        const StampContext& ctx) {
  const Solution sol(x);
  for (auto& e : ckt_.elements()) e->commit(sol, ctx);
}

TransientResult Engine::transient(double t_stop, double dt,
                                  bool use_initial_conditions) {
  if (t_stop <= 0.0 || dt <= 0.0 || dt > t_stop) {
    throw std::invalid_argument("Engine::transient: bad time parameters");
  }
  const std::size_t dim = ckt_.assign_unknowns();

  TransientResult res;
  for (std::size_t k = 0; k < ckt_.node_count(); ++k) {
    res.node_index_.emplace(ckt_.node_name(k), k);
  }
  for (auto& e : ckt_.elements()) {
    if (const auto* vs = dynamic_cast<const VoltageSource*>(e.get())) {
      res.source_branch_.emplace(vs->name(), vs->branch_index());
    }
    e->reset();
  }

  // Preallocate the full waveform storage so the stepping loop below only
  // copies into existing buffers: after this point the transient performs
  // zero heap allocations per step.
  const auto steps = static_cast<std::size_t>(std::llround(t_stop / dt));
  res.times_.assign(steps + 1, 0.0);
  res.samples_.assign(steps + 1, std::vector<double>(dim, 0.0));

  std::vector<double> x(dim, 0.0);
  if (!use_initial_conditions) {
    StampContext dc_ctx;
    dc_ctx.kind = AnalysisKind::Dc;
    if (!solve(x, dc_ctx, dim)) res.converged_ = false;
    commit_all(x, dc_ctx);
  }
  res.times_[0] = 0.0;
  res.samples_[0] = x;

  for (std::size_t k = 0; k < steps; ++k) {
    StampContext ctx;
    ctx.kind = AnalysisKind::Transient;
    ctx.t = double(k + 1) * dt;
    ctx.dt = dt;
    ctx.first_step = (k == 0);
    if (!solve(x, ctx, dim)) res.converged_ = false;
    commit_all(x, ctx);
    res.times_[k + 1] = ctx.t;
    res.samples_[k + 1] = x;
  }
  return res;
}

} // namespace mss::spice
