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

double TransientResult::v_at(const std::string& node, double t) const {
  if (node == "0" || node == "gnd" || node == "GND") return 0.0;
  if (times_.empty()) {
    throw std::out_of_range("TransientResult: empty result");
  }
  const std::size_t idx = idx_of_node(node);
  if (t <= times_.front()) return samples_.front()[idx];
  if (t >= times_.back()) return samples_.back()[idx];
  const auto it = std::upper_bound(times_.begin(), times_.end(), t);
  const std::size_t hi = static_cast<std::size_t>(it - times_.begin());
  const std::size_t lo = hi - 1;
  const double t0 = times_[lo], t1 = times_[hi];
  const double w = t1 > t0 ? (t - t0) / (t1 - t0) : 0.0;
  return samples_[lo][idx] + w * (samples_[hi][idx] - samples_[lo][idx]);
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

void Engine::init_result_maps(TransientResult& res) const {
  for (std::size_t k = 0; k < ckt_.node_count(); ++k) {
    res.node_index_.emplace(ckt_.node_name(k), k);
  }
  for (const auto& e : ckt_.elements()) {
    if (const auto* vs = dynamic_cast<const VoltageSource*>(e.get())) {
      res.source_branch_.emplace(vs->name(), vs->branch_index());
    }
  }
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
  init_result_maps(res);

  for (auto& e : ckt_.elements()) e->reset();

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
    ctx.method = opt_.method;
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

TransientResult Engine::transient_adaptive(double t_stop, double dt_initial,
                                           AdaptiveOptions adaptive,
                                           bool use_initial_conditions) {
  if (t_stop <= 0.0 || dt_initial <= 0.0 || dt_initial > t_stop) {
    throw std::invalid_argument(
        "Engine::transient_adaptive: bad time parameters");
  }
  const std::size_t dim = ckt_.assign_unknowns();
  const double dt_min =
      adaptive.dt_min > 0.0 ? adaptive.dt_min : dt_initial / 1024.0;
  const double dt_max = adaptive.dt_max > 0.0
                            ? adaptive.dt_max
                            : std::max(dt_initial, t_stop / 16.0);

  TransientResult res;
  init_result_maps(res);
  for (auto& e : ckt_.elements()) e->reset();

  // Hard time points the controller must land on: source-waveform corners
  // (pulse/PWL breakpoints) and t_stop itself. Deduplicated within a
  // relative epsilon so a shared pulse edge appears once.
  std::vector<double> bps;
  for (const auto& e : ckt_.elements()) e->append_breakpoints(t_stop, bps);
  bps.push_back(t_stop);
  std::sort(bps.begin(), bps.end());
  const double bp_eps = 1e-12 * t_stop;
  bps.erase(std::unique(bps.begin(), bps.end(),
                        [&](double a, double b) { return b - a < bp_eps; }),
            bps.end());

  std::vector<double> x(dim, 0.0);
  if (!use_initial_conditions) {
    StampContext dc_ctx;
    dc_ctx.kind = AnalysisKind::Dc;
    if (!solve(x, dc_ctx, dim)) res.converged_ = false;
    commit_all(x, dc_ctx);
  }
  res.times_.push_back(0.0);
  res.samples_.push_back(x);

  // Step-doubling controller: the error of one dt step against two dt/2
  // steps estimates the local truncation error; the (more accurate)
  // half-step solution is what gets accepted. Element histories advance
  // with the half steps, so every element sees a plain sequence of
  // committed steps; a rejected trial rolls them back via
  // save_state/restore_state.
  const double p_exp =
      adaptive.method == Integrator::Trapezoidal ? 1.0 / 3.0 : 1.0 / 2.0;
  std::vector<double> x_full, x_half, x_saved;
  double t = 0.0;
  double dt = std::min(dt_initial, dt_max);
  bool has_history = false; // any transient step committed yet (BE -> trap)
  std::size_t next_bp = 0;
  const double t_end_eps = 1e-9 * t_stop;

  while (t < t_stop - t_end_eps) {
    while (next_bp < bps.size() && bps[next_bp] <= t + bp_eps) ++next_bp;
    const double t_target = next_bp < bps.size() ? bps[next_bp] : t_stop;
    const double dt_cruise = std::min(dt, dt_max);
    double dt_eff = dt_cruise;
    // Land exactly on the breakpoint; stretch a hair-short final gap onto
    // this step rather than leaving an unsteppable sliver.
    if (t + dt_eff >= t_target - bp_eps) {
      dt_eff = t_target - t;
    } else if (t + 1.5 * dt_eff > t_target) {
      dt_eff = 0.5 * (t_target - t);
    }
    const bool clipped = dt_eff < dt_cruise * (1.0 - 1e-12);

    for (auto& e : ckt_.elements()) e->save_state();
    x_saved = x;
    const bool saved_history = has_history;

    StampContext ctx;
    ctx.kind = AnalysisKind::Transient;
    ctx.method = adaptive.method;

    // Trial 1: one full step.
    x_full = x;
    ctx.t = t + dt_eff;
    ctx.dt = dt_eff;
    ctx.first_step = !has_history;
    bool ok = solve(x_full, ctx, dim);

    // Trial 2: two half steps (committing the midpoint so the second half
    // sees its history).
    x_half = x;
    ctx.t = t + 0.5 * dt_eff;
    ctx.dt = 0.5 * dt_eff;
    ctx.first_step = !has_history;
    ok = solve(x_half, ctx, dim) && ok;
    commit_all(x_half, ctx);
    has_history = true;
    ctx.t = t + dt_eff;
    ctx.first_step = false;
    ok = solve(x_half, ctx, dim) && ok;

    double err = 0.0;
    if (ok) {
      for (std::size_t k = 0; k < dim; ++k) {
        const double scale =
            adaptive.ltol_abs +
            adaptive.ltol_rel *
                std::max(std::abs(x_half[k]), std::abs(x_saved[k]));
        err = std::max(err, std::abs(x_full[k] - x_half[k]) / scale);
      }
    }

    const bool at_floor = dt_eff <= dt_min * (1.0 + 1e-9);
    if (ok && (err <= 1.0 || at_floor)) {
      // Accept; commit the second half step.
      commit_all(x_half, ctx);
      x = x_half;
      t += dt_eff;
      res.times_.push_back(t);
      res.samples_.push_back(x);
      const double growth = std::min(
          adaptive.grow_limit,
          adaptive.safety * std::pow(std::max(err, 1e-12), -p_exp));
      // A step shortened only to land on a breakpoint says nothing about
      // the attainable step size: resume at the cruising dt afterwards
      // instead of re-growing from the sliver at grow_limit per step.
      const double proposed =
          clipped ? std::max(dt_cruise, dt_eff * growth) : dt_eff * growth;
      dt = std::clamp(proposed, dt_min, dt_max);
    } else if (at_floor) {
      // Newton failed at the smallest allowed step: record the failure and
      // push through, exactly like the fixed-step loop does.
      res.converged_ = false;
      commit_all(x_half, ctx);
      x = x_half;
      t += dt_eff;
      res.times_.push_back(t);
      res.samples_.push_back(x);
      dt = dt_min;
    } else {
      // Reject: roll elements and the iterate back, shrink, retry.
      for (auto& e : ckt_.elements()) e->restore_state();
      x = x_saved;
      has_history = saved_history;
      ++res.rejected_;
      const double shrink =
          ok ? std::max(0.2, adaptive.safety * std::pow(err, -p_exp)) : 0.25;
      dt = std::max(dt_min, dt_eff * shrink);
    }
  }
  return res;
}

} // namespace mss::spice
