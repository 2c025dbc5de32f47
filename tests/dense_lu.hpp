// Dense LU reference for the sparse solver tests: a Doolittle LU with
// partial pivoting over flat row-major storage (templated over the scalar,
// so the complex AC systems share it), plus the oracle helpers that rebuild
// a stamped SparseSolverT matrix densely and check a sparse solve against
// it. Test-only: the library has one linear solver, the sparse LU.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
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

template <typename T>
[[nodiscard]] bool dense_lu_factor(std::vector<T>& a,
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
    const T inv_pivot = T(1.0) / a[k * n + k];
    for (std::size_t r = k + 1; r < n; ++r) {
      const T f = a[r * n + k] * inv_pivot;
      a[r * n + k] = f;
      if (f == T{}) continue;
      for (std::size_t c = k + 1; c < n; ++c) a[r * n + c] -= f * a[k * n + c];
    }
  }
  return true;
}

template <typename T>
void dense_lu_substitute(const std::vector<T>& lu,
                         const std::vector<std::uint32_t>& pivots,
                         std::vector<T>& b, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    if (pivots[k] != k) std::swap(b[k], b[pivots[k]]);
    T acc = b[k];
    for (std::size_t c = 0; c < k; ++c) acc -= lu[k * n + c] * b[c];
    b[k] = acc;
  }
  for (std::size_t ri = n; ri-- > 0;) {
    T acc = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= lu[ri * n + c] * b[c];
    b[ri] = acc / lu[ri * n + ri];
  }
}

/// Solves the matrix currently stamped into `s` with the dense LU.
template <typename T>
[[nodiscard]] bool dense_reference_solve(const SparseSolverT<T>& s,
                                         const std::vector<T>& b,
                                         std::vector<T>& x) {
  const std::size_t n = s.dim();
  std::vector<T> a(n * n);
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
template <typename T>
void expect_matches_dense(SparseSolverT<T>& s, const std::vector<T>& b,
                          std::vector<T>& x) {
  std::vector<T> ref;
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
/// returns the right-hand side.
[[nodiscard]] inline std::vector<double> stamp_circuit(
    const Circuit& ckt, SparseSolver& s, std::size_t dim,
    const std::vector<double>& x, const StampContext& ctx) {
  std::vector<double> rhs(dim, 0.0);
  s.begin(dim);
  MnaSystem sys(s, rhs);
  ckt.stamp_all(sys, Solution(x), ctx);
  for (std::size_t k = 0; k < ckt.node_count(); ++k) {
    sys.add_g(static_cast<int>(k), static_cast<int>(k), kGmin);
  }
  return rhs;
}

/// The AC counterpart of `stamp_circuit` at angular frequency `omega`.
[[nodiscard]] inline std::vector<std::complex<double>> stamp_circuit_ac(
    const Circuit& ckt, AcSparseSolver& s, std::size_t dim,
    const std::vector<double>& op, double omega) {
  std::vector<std::complex<double>> rhs(dim);
  s.begin(dim);
  AcSystem sys(s, rhs);
  ckt.stamp_all_ac(sys, Solution(op), omega);
  for (std::size_t k = 0; k < ckt.node_count(); ++k) {
    sys.add_g(static_cast<int>(k), static_cast<int>(k), kGmin);
  }
  return rhs;
}

/// Solver-level oracle over one netlist: stamps it at x = 0 (DC), at its DC
/// operating point `x_dc` (DC and a first backward-Euler transient step of
/// 10 ps), and at every AC frequency linearised at `x_dc`, each into a
/// fresh solver, and checks every sparse solve against the dense LU.
inline void expect_stamps_match_dense(Circuit& ckt,
                                      const std::vector<double>& x_dc,
                                      const std::vector<double>& freqs) {
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
  std::vector<std::complex<double>> xc;
  for (const double f : freqs) {
    AcSparseSolver s;
    const auto rhs = stamp_circuit_ac(ckt, s, dim, x_dc, 2.0 * M_PI * f);
    expect_matches_dense(s, rhs, xc);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Stateful oracle: drives `ckt` through a damped Newton DC solve and a
/// fixed-step transient of `steps` x `dt` (the engine's iteration: 0.6 V
/// node-step damping, 1e-6 convergence, trapezoidal after a
/// backward-Euler first step) on the one persistent solver `s` — its
/// dirty-value cache, partial and scattered refactorization all live — and
/// checks every solve of the sequence against a fresh dense LU.
inline void expect_newton_sequence_matches_dense(Circuit& ckt,
                                                 SparseSolver& s,
                                                 std::size_t steps,
                                                 double dt) {
  const std::size_t dim = ckt.assign_unknowns();
  const std::size_t n_nodes = ckt.node_count();
  for (auto& e : ckt.elements()) e->reset();
  std::vector<double> x(dim, 0.0), x_new;
  const auto newton = [&](const StampContext& ctx) {
    for (int it = 0; it < 200; ++it) {
      const auto rhs = stamp_circuit(ckt, s, dim, x, ctx);
      expect_matches_dense(s, rhs, x_new);
      if (::testing::Test::HasFatalFailure()) return;
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
  };
  StampContext ctx;
  ctx.kind = AnalysisKind::Dc;
  newton(ctx);
  for (std::size_t k = 0; k < steps; ++k) {
    if (::testing::Test::HasFatalFailure()) return;
    ctx.kind = AnalysisKind::Transient;
    ctx.method = Integrator::Trapezoidal;
    ctx.t = double(k + 1) * dt;
    ctx.dt = dt;
    ctx.first_step = (k == 0);
    newton(ctx);
  }
}

} // namespace mss::spice::oracle
