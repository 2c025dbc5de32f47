// Sparse MNA solver validation: solver-level unit tests, RCM ordering,
// the dirty-stamp factorization cache, and the dense-LU oracle
// (tests/dense_lu.hpp) over RC + nonlinear (MOSFET/switch/MTJ) netlists
// stamped in DC and transient.
#include <cmath>
#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "core/pdk.hpp"
#include "spice/elements.hpp"
#include "spice/engine.hpp"
#include "spice/mosfet.hpp"
#include "spice/mtj_element.hpp"
#include "spice/sparse.hpp"
#include "dense_lu.hpp"

namespace ms = mss::spice;

namespace {

/// Random RC ladder with cross-coupling resistors and a pulse source —
/// linear, always solvable, topology a pure function of the seed.
ms::Circuit random_rc(std::uint32_t seed, std::size_t n_nodes) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> ur(100.0, 10e3);
  std::uniform_real_distribution<double> uc(0.1e-12, 2e-12);

  ms::Circuit ckt;
  std::vector<int> nodes;
  for (std::size_t k = 0; k < n_nodes; ++k) {
    nodes.push_back(ckt.node("n" + std::to_string(k)));
  }
  ckt.add(std::make_unique<ms::VoltageSource>(
      "vin", nodes[0], ms::kGround,
      std::make_unique<ms::PulseWave>(0.0, 1.0, 0.2e-9, 20e-12, 20e-12,
                                      50e-9)));
  for (std::size_t k = 0; k + 1 < n_nodes; ++k) {
    ckt.add(std::make_unique<ms::Resistor>("r" + std::to_string(k), nodes[k],
                                           nodes[k + 1], ur(gen)));
    ckt.add(std::make_unique<ms::Capacitor>("c" + std::to_string(k),
                                            nodes[k + 1], ms::kGround,
                                            uc(gen)));
  }
  // A few random cross links + a DC source behind a series resistor for a
  // second branch unknown.
  for (int x = 0; x < 4; ++x) {
    const std::size_t a = gen() % n_nodes;
    const std::size_t b = gen() % n_nodes;
    if (a == b) continue;
    ckt.add(std::make_unique<ms::Resistor>("rx" + std::to_string(x), nodes[a],
                                           nodes[b], ur(gen)));
  }
  const int mid = ckt.node("vmid");
  ckt.add(std::make_unique<ms::VoltageSource>(
      "vmid", mid, ms::kGround, std::make_unique<ms::DcWave>(0.4)));
  ckt.add(std::make_unique<ms::Resistor>("rmid", mid, nodes[n_nodes / 2],
                                         ur(gen)));
  return ckt;
}

/// Bit-cell-flavoured nonlinear netlist: MTJ + access MOSFET +
/// diode-connected MOSFET clamp + enable switch behind an RC-loaded driver.
ms::Circuit nonlinear_cell(std::uint32_t seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> ur(500.0, 3e3);
  const mss::core::Pdk pdk;

  ms::Circuit ckt;
  const int bl = ckt.node("bl");
  const int wl = ckt.node("wl");
  const int n1 = ckt.node("n1");
  const int n2 = ckt.node("n2");
  ckt.add(std::make_unique<ms::VoltageSource>(
      "vbl", bl, ms::kGround,
      std::make_unique<ms::PulseWave>(0.0, 1.1, 0.3e-9, 50e-12, 50e-12,
                                      4e-9)));
  ckt.add(std::make_unique<ms::VoltageSource>(
      "vwl", wl, ms::kGround,
      std::make_unique<ms::PulseWave>(0.0, 1.1, 0.1e-9, 50e-12, 50e-12,
                                      4.4e-9)));
  ckt.add(std::make_unique<ms::MtjDevice>("xmtj", bl, n1, pdk.mtj,
                                          mss::core::MtjState::Parallel));
  ckt.add(std::make_unique<ms::Mosfet>("macc", n1, wl, n2,
                                       ms::MosModel::nmos(), 720e-9, 45e-9));
  ckt.add(std::make_unique<ms::Resistor>("rs", n2, ms::kGround, ur(gen)));
  ckt.add(std::make_unique<ms::Mosfet>("mclamp", n2, n2, ms::kGround,
                                       ms::MosModel::nmos(), 360e-9, 45e-9));
  ckt.add(std::make_unique<ms::Switch>("sen", n1, ms::kGround, wl,
                                       ms::kGround, 0.55, 10e3, 1e9));
  ckt.add(std::make_unique<ms::Capacitor>("cbl", bl, ms::kGround, 40e-15));
  return ckt;
}

} // namespace

// ---------------------------------------------------------------------------
// Solver-level unit tests
// ---------------------------------------------------------------------------

TEST(SparseSolver, SolvesKnownSystem) {
  ms::SparseSolver s;
  s.begin(3);
  // [[2,-1,0],[-1,2,-1],[0,-1,2]] x = [1,0,0] -> x = [3/4, 1/2, 1/4].
  s.add(0, 0, 2.0);
  s.add(0, 1, -1.0);
  s.add(1, 0, -1.0);
  s.add(1, 1, 2.0);
  s.add(1, 2, -1.0);
  s.add(2, 1, -1.0);
  s.add(2, 2, 2.0);
  std::vector<double> b{1.0, 0.0, 0.0}, x;
  ASSERT_TRUE(s.solve(b, x));
  EXPECT_NEAR(x[0], 0.75, 1e-12);
  EXPECT_NEAR(x[1], 0.50, 1e-12);
  EXPECT_NEAR(x[2], 0.25, 1e-12);
}

TEST(SparseSolver, HandlesZeroDiagonalViaPivoting) {
  // MNA shape of an ideal voltage source: zero diagonal on the branch row.
  ms::SparseSolver s;
  s.begin(2);
  s.add(0, 1, 1.0); // KCL: branch current into node row
  s.add(1, 0, 1.0); // branch row: v = rhs
  std::vector<double> b{0.0, 5.0}, x;
  ASSERT_TRUE(s.solve(b, x));
  EXPECT_NEAR(x[0], 5.0, 1e-12);
  EXPECT_NEAR(x[1], 0.0, 1e-12);
}

TEST(SparseSolver, DetectsSingular) {
  ms::SparseSolver s;
  s.begin(2);
  s.add(0, 0, 1.0);
  s.add(1, 0, 1.0); // second column structurally empty
  std::vector<double> b{1.0, 1.0}, x;
  EXPECT_FALSE(s.solve(b, x));
  // A later well-posed pass must recover.
  s.begin(2);
  s.add(0, 0, 1.0);
  s.add(1, 0, 1.0);
  s.add(1, 1, 1.0);
  ASSERT_TRUE(s.solve(b, x));
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 0.0, 1e-12);
}

TEST(SparseSolver, DirtyValueCacheSkipsRefactor) {
  ms::SparseSolver s;
  const auto stamp = [&](double g) {
    s.begin(2);
    s.add(0, 0, 1.0 + g);
    s.add(0, 1, -g);
    s.add(1, 0, -g);
    s.add(1, 1, 1.0 + g);
  };
  std::vector<double> b{1.0, 0.0}, x;
  stamp(2.0);
  ASSERT_TRUE(s.solve(b, x));
  stamp(2.0);
  ASSERT_TRUE(s.solve(b, x));
  stamp(2.0);
  ASSERT_TRUE(s.solve(b, x));
  EXPECT_EQ(s.factor_count(), 1u);
  stamp(3.0);
  ASSERT_TRUE(s.solve(b, x));
  EXPECT_EQ(s.factor_count(), 2u);
}

// The replay's pivot-row check alone rejects this update. At the first
// pivot position the diagonal row holds 2 and the other row an exact 0;
// the update swaps them to 0 and 5, so the pivot moves to the other row.
// Both L columns are empty (the zero is dropped either way) and the first
// position has no U entries, so only the pivot-row comparison sees the move.
TEST(SparseSolver, ReplayRestartsWhenOnlyThePivotRowMoves) {
  // The first pivot column is RCM's choice over the full 2x2 pattern.
  const std::vector<std::uint32_t> col_ptr{0, 2, 4}, row_ind{0, 1, 0, 1};
  const auto order = ms::rcm_order(2, col_ptr, row_ind);
  const std::size_t c0 = order[0], c1 = order[1];
  const auto stamp = [&](ms::SparseSolver& s, double diag, double off) {
    s.begin(2);
    s.add(c0, c0, diag);
    s.add(c1, c0, off);
    s.add(c0, c1, 1.0);
    s.add(c1, c1, 3.0);
  };
  ms::SparseSolver replay;
  ms::SparseSolver full;
  full.set_partial_refactor(false);
  std::vector<double> b(2), x_replay, x_full;
  b[c0] = 1.0;
  b[c1] = 2.0;
  for (ms::SparseSolver* s : {&replay, &full}) {
    stamp(*s, 2.0, 0.0);
    ASSERT_TRUE(s->solve(b, x_replay));
    stamp(*s, 0.0, 5.0);
  }
  ASSERT_TRUE(replay.solve(b, x_replay));
  ASSERT_TRUE(full.solve(b, x_full));
  EXPECT_EQ(replay.scattered_cols_total(), 0u); // the replay restarted
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(x_replay[i], x_full[i]) << "x[" << i << "]"; // bit-identical
  }
  // [[0, 1], [5, 3]] (rows c0, c1) x = [1, 2]: x[c1] = 1, x[c0] = -1/5.
  EXPECT_NEAR(x_full[c1], 1.0, 1e-15);
  EXPECT_NEAR(x_full[c0], -0.2, 1e-15);
}

TEST(SparseSolver, PatternGrowthRebuildsSymbolic) {
  ms::SparseSolver s;
  s.begin(3);
  s.add(0, 0, 1.0);
  s.add(1, 1, 1.0);
  s.add(2, 2, 1.0);
  std::vector<double> b{1.0, 2.0, 3.0}, x;
  ASSERT_TRUE(s.solve(b, x));
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  // New structural position mid-life: coupling 0 <-> 2.
  s.begin(3);
  s.add(0, 0, 2.0);
  s.add(0, 2, -1.0);
  s.add(2, 0, -1.0);
  s.add(1, 1, 1.0);
  s.add(2, 2, 2.0);
  ASSERT_TRUE(s.solve(b, x));
  // [[2,0,-1],[0,1,0],[-1,0,2]] x = [1,2,3] -> x0 = 5/3, x2 = 7/3.
  EXPECT_NEAR(x[0], 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(x[2], 7.0 / 3.0, 1e-12);
}

TEST(SparseSolver, RcmOrderIsPermutation) {
  // 1D chain pattern: RCM must return a valid permutation.
  const std::size_t n = 12;
  std::vector<std::uint32_t> col_ptr(n + 1, 0), row_ind;
  for (std::size_t c = 0; c < n; ++c) {
    if (c > 0) row_ind.push_back(static_cast<std::uint32_t>(c - 1));
    row_ind.push_back(static_cast<std::uint32_t>(c));
    if (c + 1 < n) row_ind.push_back(static_cast<std::uint32_t>(c + 1));
    col_ptr[c + 1] = static_cast<std::uint32_t>(row_ind.size());
  }
  const auto order = ms::rcm_order(n, col_ptr, row_ind);
  ASSERT_EQ(order.size(), n);
  std::vector<bool> seen(n, false);
  for (const auto v : order) {
    ASSERT_LT(v, n);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

// ---------------------------------------------------------------------------
// Dense-LU oracle over stamped netlists
// ---------------------------------------------------------------------------

TEST(SparseOracle, RandomRcStampsMatchDenseLu) {
  for (std::uint32_t seed : {1u, 2u, 3u, 4u, 5u, 11u, 12u, 13u, 41u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto ckt = random_rc(seed, 12 + seed % 10);
    const auto dc = ms::Engine(ckt).dc();
    ASSERT_TRUE(dc.converged);
    ms::oracle::expect_stamps_match_dense(ckt, dc.x);
    if (HasFatalFailure()) return;
  }
}

TEST(SparseOracle, MtjCellStampsMatchDenseLu) {
  for (std::uint32_t seed : {21u, 22u, 23u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto ckt = nonlinear_cell(seed);
    const auto dc = ms::Engine(ckt).dc();
    ASSERT_TRUE(dc.converged);
    ms::oracle::expect_stamps_match_dense(ckt, dc.x);
    if (HasFatalFailure()) return;
  }
}

TEST(SparseOracle, MtjCellNewtonSequenceMatchesDenseLu) {
  // A persistent solver through the DC Newton iterates and a 6 ns
  // transient across both pulse edges: every solve matches a fresh dense
  // LU of the same stamps.
  for (std::uint32_t seed : {21u, 22u, 23u, 33u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto ckt = nonlinear_cell(seed);
    ms::SparseSolver solver;
    (void)ms::oracle::newton_sequence(ckt, solver, 600, 10e-12);
    if (HasFatalFailure()) return;
  }
}

TEST(SparseEquivalence, LinearTransientFactorsThrice) {
  // The dirty-stamp cache contract, held by the solver: a linear
  // fixed-step transient factors for the DC operating point, the first
  // backward-Euler step, and the steady trapezoidal pattern — then
  // back-substitutes only.
  auto ckt = random_rc(7, 20);
  ms::Engine eng(ckt);
  const auto tr = eng.transient(5e-9, 10e-12, {});
  ASSERT_TRUE(tr.converged());
  EXPECT_EQ(eng.factor_count(), 3u);
}
