// Dense LU reference for the sparse solver tests: a Doolittle LU with
// partial pivoting over flat row-major storage, plus the oracle helpers
// that rebuild a stamped SparseSolver matrix densely and check a sparse
// solve against it, and the Newton-sequence runner through which the
// tests reach the solver's and the stamping interface's reference arms
// (full refactorization, uncached stamping). Test-only: the library has
// one linear solver, the sparse LU, and Engine always runs its fast arms.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/sparse.hpp"

namespace mss::spice::oracle {

/// Agreement bound of a sparse solve against the dense reference, relative
/// to max(1, |x|).
constexpr double kTol = 1e-9;
/// The node-to-ground shunt Engine stamps (EngineOptions::gmin default).
constexpr double kGmin = 1e-12;

[[nodiscard]] inline bool dense_lu_factor(std::vector<double>& a,
                                   std::vector<std::uint32_t>& pivots,
                                   std::size_t n) {
  pivots.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    double best = std::abs(a[k * n + k]);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(a[r * n + k]);
      if (v > best) {
        best = v;
        piv = r;
      }
    }
    if (best < 1e-300) return false;
    pivots[k] = static_cast<std::uint32_t>(piv);
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(a[k * n + c], a[piv * n + c]);
      }
    }
    const double inv_pivot = 1.0 / a[k * n + k];
    for (std::size_t r = k + 1; r < n; ++r) {
      const double f = a[r * n + k] * inv_pivot;
      a[r * n + k] = f;
      if (f == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) a[r * n + c] -= f * a[k * n + c];
    }
  }
  return true;
}

inline void dense_lu_substitute(const std::vector<double>& lu,
                                const std::vector<std::uint32_t>& pivots,
                                std::vector<double>& b, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    if (pivots[k] != k) std::swap(b[k], b[pivots[k]]);
    double acc = b[k];
    for (std::size_t c = 0; c < k; ++c) acc -= lu[k * n + c] * b[c];
    b[k] = acc;
  }
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= lu[ri * n + c] * b[c];
    b[ri] = acc / lu[ri * n + ri];
  }
}

/// Solves the matrix currently stamped into `s` with the dense LU.
[[nodiscard]] inline bool dense_reference_solve(const SparseSolver& s,
                                                const std::vector<double>& b,
                                                std::vector<double>& x) {
  const std::size_t n = s.dim();
  std::vector<double> a(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a[i * n + j] = s.value(i, j);
  }
  std::vector<std::uint32_t> pivots;
  if (!dense_lu_factor(a, pivots, n)) return false;
  x = b;
  dense_lu_substitute(a, pivots, x, n);
  return true;
}

/// Solves the system stamped into `s` both sparsely and densely and
/// asserts agreement within kTol. The sparse solution is returned in `x`.
inline void expect_matches_dense(SparseSolver& s, const std::vector<double>& b,
                                 std::vector<double>& x) {
  std::vector<double> ref;
  ASSERT_TRUE(dense_reference_solve(s, b, ref)) << "dense reference singular";
  ASSERT_TRUE(s.solve(b, x)) << "sparse solve singular";
  ASSERT_EQ(x.size(), ref.size());
  for (std::size_t k = 0; k < x.size(); ++k) {
    ASSERT_LE(std::abs(x[k] - ref[k]),
              kTol * std::max(1.0, std::abs(ref[k])))
        << "unknown " << k << " of " << x.size();
  }
}

/// Stamps every element plus the engine's gmin node shunts at iterate `x`
/// into `s` (the same assembly pass Engine runs per Newton iteration) and
/// returns the right-hand side. `slot_cache` = false stamps through the
/// per-position `add_g` path instead of the elements' slot caches.
[[nodiscard]] inline std::vector<double> stamp_circuit(
    const Circuit& ckt, SparseSolver& s, std::size_t dim,
    const std::vector<double>& x, const StampContext& ctx,
    bool slot_cache = true) {
  std::vector<double> rhs(dim, 0.0);
  s.begin(dim);
  MnaSystem sys(s, rhs, slot_cache);
  ckt.stamp_all(sys, Solution(x), ctx);
  for (std::size_t k = 0; k < ckt.node_count(); ++k) {
    sys.add_g(static_cast<int>(k), static_cast<int>(k), kGmin);
  }
  return rhs;
}

/// Solver-level oracle over one netlist: stamps it at x = 0 (DC) and at its
/// DC operating point `x_dc` (DC and a first backward-Euler transient step
/// of 10 ps), each into a fresh solver, and checks every sparse solve
/// against the dense LU.
inline void expect_stamps_match_dense(Circuit& ckt,
                                      const std::vector<double>& x_dc) {
  constexpr double dt = 10e-12;
  const std::size_t dim = ckt.assign_unknowns();
  ASSERT_EQ(x_dc.size(), dim);
  for (auto& e : ckt.elements()) e->reset();
  StampContext dc;
  dc.kind = AnalysisKind::Dc;
  StampContext tran;
  tran.kind = AnalysisKind::Transient;
  tran.t = dt;
  tran.dt = dt;
  tran.first_step = true;
  const std::vector<double> zero(dim, 0.0);
  std::vector<double> x;
  for (const auto& [at, ctx] :
       {std::pair{&zero, dc}, std::pair{&x_dc, dc}, std::pair{&x_dc, tran}}) {
    SparseSolver s;
    const auto rhs = stamp_circuit(ckt, s, dim, *at, ctx);
    expect_matches_dense(s, rhs, x);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// The arms a Newton sequence runs on.
struct SequenceArms {
  /// Check every solve against a fresh dense LU — O(dim^3) per solve, so
  /// off for array-scale netlists.
  bool dense_check = true;
  /// Stamp through the elements' slot caches, as Engine does; false is
  /// the per-position `add_g` reference.
  bool slot_cache = true;
};

/// Stateful oracle: drives `ckt` through Engine's iteration — a Newton DC
/// solve and a fixed-step transient of `steps` x `dt` (0.6 V node-step
/// damping, 1e-6 convergence, one solve per point for a linear circuit,
/// trapezoidal after a backward-Euler first step) — on the one persistent
/// solver `s`, its dirty-value cache and dirty-set replay live unless the
/// caller turned the replay off. Returns the committed iterate of
/// the operating point and of every step (steps + 1 vectors), which equal
/// Engine::transient's samples bit for bit when both run the same arms.
inline std::vector<std::vector<double>> newton_sequence(
    Circuit& ckt, SparseSolver& s, std::size_t steps, double dt,
    SequenceArms arms = {}) {
  const std::size_t dim = ckt.assign_unknowns();
  const std::size_t n_nodes = ckt.node_count();
  const bool nonlinear = ckt.any_nonlinear();
  for (auto& e : ckt.elements()) e->reset();
  std::vector<double> x(dim, 0.0), x_new;
  std::vector<std::vector<double>> states;
  const auto newton = [&](const StampContext& ctx) {
    for (int it = 0; it < 200; ++it) {
      const auto rhs = stamp_circuit(ckt, s, dim, x, ctx, arms.slot_cache);
      if (arms.dense_check) {
        expect_matches_dense(s, rhs, x_new);
        if (::testing::Test::HasFatalFailure()) return;
      } else {
        ASSERT_TRUE(s.solve(rhs, x_new)) << "sparse solve singular";
      }
      if (!nonlinear) {
        x = x_new;
        break;
      }
      double worst = 0.0;
      for (std::size_t k = 0; k < dim; ++k) {
        double dxk = x_new[k] - x[k];
        if (k < n_nodes) dxk = std::clamp(dxk, -0.6, 0.6);
        x[k] += dxk;
        worst = std::max(worst, std::abs(dxk) / std::max(1.0, std::abs(x[k])));
      }
      if (worst <= 1e-6) break;
    }
    const Solution sol(x);
    for (auto& e : ckt.elements()) e->commit(sol, ctx);
    states.push_back(x);
  };
  StampContext ctx;
  ctx.kind = AnalysisKind::Dc;
  newton(ctx);
  for (std::size_t k = 0; k < steps; ++k) {
    if (::testing::Test::HasFatalFailure()) break;
    ctx.kind = AnalysisKind::Transient;
    ctx.t = double(k + 1) * dt;
    ctx.dt = dt;
    ctx.first_step = (k == 0);
    newton(ctx);
  }
  return states;
}

} // namespace mss::spice::oracle
