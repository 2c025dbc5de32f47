#include "spice/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mss::spice {

std::optional<Signal> parse_signal(const std::string& text) {
  if (text.size() < 4 || text[1] != '(' || text.back() != ')') {
    return std::nullopt;
  }
  const char kind = text[0];
  if (kind != 'v' && kind != 'V' && kind != 'i' && kind != 'I') {
    return std::nullopt;
  }
  return Signal{kind == 'i' || kind == 'I', text.substr(2, text.size() - 3)};
}

namespace {

/// Unknown a probe reads: `v(<node>)` resolves through Circuit::find_node
/// (kGround for a ground name), `i(<vsource>)` to the source's branch.
int resolve_probe(const Circuit& ckt, const std::string& probe) {
  const auto sig = parse_signal(probe);
  if (!sig) {
    throw std::invalid_argument("Engine::transient: bad probe '" + probe +
                                "' (want v(<node>) or i(<vsource>))");
  }
  return sig->current ? static_cast<int>(ckt.find_branch(sig->name))
                      : ckt.find_node(sig->name);
}

} // namespace

const std::vector<double>& TransientResult::waveform(
    const std::string& probe) const {
  const auto it = std::find(probes_.begin(), probes_.end(), probe);
  if (it == probes_.end()) {
    throw std::out_of_range("TransientResult: '" + probe +
                            "' was not probed");
  }
  return columns_[static_cast<std::size_t>(it - probes_.begin())];
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
                                  const std::vector<std::string>& probes,
                                  bool use_initial_conditions) {
  if (t_stop <= 0.0 || dt <= 0.0 || dt > t_stop) {
    throw std::invalid_argument("Engine::transient: bad time parameters");
  }
  const std::size_t dim = ckt_.assign_unknowns();

  // Resolve every probe before the first step: a bad probe throws here,
  // not after the run.
  std::vector<int> unknowns; // per column; kGround stays a zero column
  for (const auto& p : probes) unknowns.push_back(resolve_probe(ckt_, p));
  TransientResult res;
  res.probes_ = probes;
  for (auto& e : ckt_.elements()) e->reset();

  // Preallocate the waveform storage so the stepping loop below only
  // copies into existing buffers: after this point the transient performs
  // zero heap allocations per step.
  const auto steps = static_cast<std::size_t>(std::llround(t_stop / dt));
  res.times_.assign(steps + 1, 0.0);
  res.columns_.assign(unknowns.size(), std::vector<double>(steps + 1, 0.0));

  std::vector<double> x(dim, 0.0);
  const auto record = [&](std::size_t k, double t) {
    res.times_[k] = t;
    for (std::size_t c = 0; c < unknowns.size(); ++c) {
      if (unknowns[c] != kGround) {
        res.columns_[c][k] = x[static_cast<std::size_t>(unknowns[c])];
      }
    }
  };
  if (!use_initial_conditions) {
    StampContext dc_ctx;
    dc_ctx.kind = AnalysisKind::Dc;
    if (!solve(x, dc_ctx, dim)) res.converged_ = false;
    commit_all(x, dc_ctx);
  }
  record(0, 0.0);

  for (std::size_t k = 0; k < steps; ++k) {
    StampContext ctx;
    ctx.kind = AnalysisKind::Transient;
    ctx.t = double(k + 1) * dt;
    ctx.dt = dt;
    ctx.first_step = (k == 0);
    if (!solve(x, ctx, dim)) res.converged_ = false;
    commit_all(x, ctx);
    record(k + 1, ctx.t);
  }
  return res;
}

} // namespace mss::spice
