// Randomized solver-equivalence suite: generated netlists (R/C/L, pulse +
// DC + sine sources, controlled sources, switches, diodes, MOSFETs, MTJs;
// 8-512 nodes) checked at two levels.
//
// Solver level (SparseOracle): every netlist is stamped into the sparse LU
// at x = 0, at its DC operating point (DC and transient contexts) and at
// each AC frequency, and every solve must match a dense LU of the same
// assembled matrix (tests/dense_lu.hpp) within 1e-9. A persistent solver
// fed the successive Newton iterates of the nonlinear seeds must match a
// fresh dense solve at every step, so the dirty-value cache and the
// partial/scattered refactorizations are checked against the oracle.
//
// Engine level (RandomizedEquivalence), under every ordering / stamp-slot
// cache combination, in DC, transient and AC:
//  * natural vs RCM vs AMD: within 1e-9 on every unknown at every
//    time/frequency point (different factorization orders round
//    differently);
//  * stamp-slot cached vs uncached restamps (same ordering): EXACTLY
//    equal, bit for bit — the cache only skips position lookups, never
//    changes an accumulation order.
//
// 108 generated netlists per analysis mode (>= the 100 the acceptance
// criterion asks for): 90 small ones (8-64 nodes, nonlinear devices on odd
// seeds) and 18 array-scale linear ones (96-512 nodes).
#include <cmath>
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "core/pdk.hpp"
#include "spice/ac.hpp"
#include "spice/controlled.hpp"
#include "spice/elements.hpp"
#include "spice/engine.hpp"
#include "spice/mosfet.hpp"
#include "spice/mtj_element.hpp"
#include "spice/sparse.hpp"
#include "dense_lu.hpp"

namespace ms = mss::spice;

namespace {

constexpr double kTol = 1e-9;

/// One ordering/cache combination of a run.
struct Config {
  ms::Ordering ordering;
  bool cache;
  const char* label;
};

constexpr std::array<Config, 6> kConfigs = {{
    {ms::Ordering::Natural, true, "natural/cached"},
    {ms::Ordering::Natural, false, "natural/uncached"},
    {ms::Ordering::Rcm, true, "rcm/cached"},
    {ms::Ordering::Rcm, false, "rcm/uncached"},
    {ms::Ordering::Amd, true, "amd/cached"},
    {ms::Ordering::Amd, false, "amd/uncached"},
}};

/// Pairs of configs that must agree bit-for-bit (cache on vs off).
constexpr std::array<std::pair<std::size_t, std::size_t>, 3> kExactPairs = {
    {{0, 1}, {2, 3}, {4, 5}}};

/// Netlist size schedule: 90 small seeds (nonlinear on odd ones) plus 18
/// array-scale linear seeds, 108 per analysis mode.
constexpr std::array<std::size_t, 10> kSmallSizes = {8,  10, 12, 16, 20,
                                                     24, 32, 40, 48, 64};
constexpr std::array<std::size_t, 9> kBigSizes = {96,  128, 160, 224, 256,
                                                  320, 384, 448, 512};
constexpr std::size_t kSmallSeeds = 90;
constexpr std::size_t kTotalSeeds = 108;

struct NetlistSpec {
  std::size_t n_nodes;
  bool nonlinear;
};

[[nodiscard]] NetlistSpec spec_for(std::uint32_t seed) {
  if (seed < kSmallSeeds) {
    return {kSmallSizes[seed % kSmallSizes.size()], (seed & 1u) != 0};
  }
  return {kBigSizes[(seed - kSmallSeeds) % kBigSizes.size()], false};
}

/// Attaches a bit-cell-flavoured nonlinear cluster (MTJ + access MOSFET +
/// diode clamp + enable switch) at a backbone node — the structured shape
/// that keeps Newton robust under every ordering.
void attach_cell(ms::Circuit& ckt, int node, int gate_node,
                 const mss::core::Pdk& pdk, std::mt19937& gen, int tag) {
  std::uniform_real_distribution<double> ur(500.0, 3e3);
  const std::string ts = std::to_string(tag);
  const int n1 = ckt.node("cell" + ts + ".1");
  const int n2 = ckt.node("cell" + ts + ".2");
  const auto state = (gen() & 1u) != 0 ? mss::core::MtjState::Parallel
                                       : mss::core::MtjState::Antiparallel;
  ckt.add(std::make_unique<ms::MtjDevice>("xmtj" + ts, node, n1, pdk.mtj,
                                          state));
  ckt.add(std::make_unique<ms::Mosfet>("macc" + ts, n1, gate_node, n2,
                                       ms::MosModel::nmos(), 720e-9, 45e-9));
  ckt.add(std::make_unique<ms::Resistor>("rcell" + ts, n2, ms::kGround,
                                         ur(gen)));
  if ((gen() & 1u) != 0) {
    ckt.add(std::make_unique<ms::Diode>("dcell" + ts, n2, ms::kGround));
  }
  if ((gen() & 1u) != 0) {
    ckt.add(std::make_unique<ms::Switch>("scell" + ts, n1, ms::kGround,
                                         gate_node, ms::kGround, 0.55, 10e3,
                                         1e9));
  }
}

/// Deterministic random netlist: resistive backbone chain driven by a
/// pulse source, per-node ground capacitors, random cross links, an
/// inductor, controlled sources, and (for nonlinear specs) bit-cell
/// clusters hanging off the backbone. Topology is a pure function of the
/// seed, so independently built instances are identical.
[[nodiscard]] ms::Circuit random_netlist(std::uint32_t seed) {
  const NetlistSpec spec = spec_for(seed);
  std::mt19937 gen(seed * 2654435761u + 1);
  std::uniform_real_distribution<double> ur(100.0, 10e3);
  std::uniform_real_distribution<double> uc(0.1e-12, 2e-12);
  const mss::core::Pdk pdk;

  ms::Circuit ckt;
  std::vector<int> nodes;
  nodes.reserve(spec.n_nodes);
  for (std::size_t k = 0; k < spec.n_nodes; ++k) {
    nodes.push_back(ckt.node("n" + std::to_string(k)));
  }
  ckt.add(std::make_unique<ms::VoltageSource>(
      "vin", nodes[0], ms::kGround,
      std::make_unique<ms::PulseWave>(0.0, 1.1, 0.2e-9, 30e-12, 30e-12,
                                      3e-9)));
  for (std::size_t k = 0; k + 1 < spec.n_nodes; ++k) {
    ckt.add(std::make_unique<ms::Resistor>("r" + std::to_string(k), nodes[k],
                                           nodes[k + 1], ur(gen)));
    if (gen() % 5 != 0) {
      ckt.add(std::make_unique<ms::Capacitor>("c" + std::to_string(k),
                                              nodes[k + 1], ms::kGround,
                                              uc(gen)));
    }
  }
  // Cross links make the graph meshy (the case AMD exists for).
  const std::size_t n_cross = 2 + spec.n_nodes / 8;
  for (std::size_t x = 0; x < n_cross; ++x) {
    const std::size_t a = gen() % spec.n_nodes;
    const std::size_t b = gen() % spec.n_nodes;
    if (a == b) continue;
    ckt.add(std::make_unique<ms::Resistor>("rx" + std::to_string(x), nodes[a],
                                           nodes[b], ur(gen)));
  }
  ckt.add(std::make_unique<ms::Inductor>("l0", nodes[spec.n_nodes / 2],
                                         ms::kGround, 10e-9));
  if (spec.n_nodes >= 12) {
    ckt.add(std::make_unique<ms::CurrentSource>(
        "iaux", nodes[spec.n_nodes / 3], ms::kGround,
        std::make_unique<ms::SineWave>(0.0, 50e-6, 1e9)));
    ckt.add(std::make_unique<ms::Vccs>("gaux", nodes[2 * spec.n_nodes / 3],
                                       ms::kGround, nodes[1], ms::kGround,
                                       1e-5));
  }
  if (spec.n_nodes >= 16 && (gen() & 1u) != 0) {
    ckt.add(std::make_unique<ms::Vcvs>("eaux", nodes[spec.n_nodes - 2],
                                       ms::kGround, nodes[spec.n_nodes / 4],
                                       ms::kGround, 0.5));
  }
  if (spec.nonlinear) {
    const std::size_t n_cells = 1 + gen() % 3;
    for (std::size_t c = 0; c < n_cells; ++c) {
      const std::size_t at = 1 + gen() % (spec.n_nodes - 1);
      attach_cell(ckt, nodes[at], nodes[0], pdk, gen, static_cast<int>(c));
    }
  }
  return ckt;
}

[[nodiscard]] ms::EngineOptions engine_options(const Config& cfg) {
  ms::EngineOptions o;
  o.ordering = cfg.ordering;
  o.stamp_cache = cfg.cache;
  return o;
}

} // namespace

// ---------------------------------------------------------------------------
// Ordering unit tests
// ---------------------------------------------------------------------------

namespace {

/// CSC pattern of a w x h 5-point grid Laplacian (the meshy shape RCM's
/// profile heuristic handles worse than fill-minimising orderings).
void grid_pattern(std::size_t w, std::size_t h,
                  std::vector<std::uint32_t>& col_ptr,
                  std::vector<std::uint32_t>& row_ind) {
  const std::size_t n = w * h;
  col_ptr.assign(n + 1, 0);
  row_ind.clear();
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      const std::size_t c = y * w + x;
      const auto push = [&](std::size_t r) {
        row_ind.push_back(static_cast<std::uint32_t>(r));
      };
      if (y > 0) push(c - w);
      if (x > 0) push(c - 1);
      push(c);
      if (x + 1 < w) push(c + 1);
      if (y + 1 < h) push(c + w);
      col_ptr[c + 1] = static_cast<std::uint32_t>(row_ind.size());
    }
  }
}

} // namespace

TEST(AmdOrder, IsPermutation) {
  std::vector<std::uint32_t> col_ptr, row_ind;
  grid_pattern(7, 9, col_ptr, row_ind);
  const auto order = ms::amd_order(63, col_ptr, row_ind);
  ASSERT_EQ(order.size(), 63u);
  std::vector<bool> seen(63, false);
  for (const auto v : order) {
    ASSERT_LT(v, 63u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(AmdOrder, CutsGridFillVersusNatural) {
  std::vector<std::uint32_t> col_ptr, row_ind;
  grid_pattern(16, 16, col_ptr, row_ind);
  std::vector<std::uint32_t> natural(256);
  for (std::uint32_t k = 0; k < 256; ++k) natural[k] = k;
  const auto amd = ms::amd_order(256, col_ptr, row_ind);
  const std::size_t fill_nat = ms::symbolic_fill(256, col_ptr, row_ind, natural);
  const std::size_t fill_amd = ms::symbolic_fill(256, col_ptr, row_ind, amd);
  // Natural ordering of a 16x16 grid fills the whole band (~w per column);
  // minimum degree must do strictly better.
  EXPECT_LT(fill_amd, fill_nat);
}

TEST(AmdOrder, BeatsRcmOnMeshesSoAutoPicksIt) {
  // The case AMD exists for: on a 2D mesh RCM's profile is ~width per
  // column while minimum degree approaches the nested-dissection fill.
  std::vector<std::uint32_t> col_ptr, row_ind;
  grid_pattern(32, 32, col_ptr, row_ind);
  const auto rcm = ms::rcm_order(1024, col_ptr, row_ind);
  const auto amd = ms::amd_order(1024, col_ptr, row_ind);
  const std::size_t fill_rcm = ms::symbolic_fill(1024, col_ptr, row_ind, rcm);
  const std::size_t fill_amd = ms::symbolic_fill(1024, col_ptr, row_ind, amd);
  EXPECT_LT(fill_amd, fill_rcm);
}

TEST(SymbolicFill, ExactOnChain) {
  // Tridiagonal chain: no fill under the natural ordering — nnz(L) is
  // exactly n (diagonal) + n-1 (subdiagonal).
  const std::size_t n = 20;
  std::vector<std::uint32_t> col_ptr(n + 1, 0), row_ind;
  for (std::size_t c = 0; c < n; ++c) {
    if (c > 0) row_ind.push_back(static_cast<std::uint32_t>(c - 1));
    row_ind.push_back(static_cast<std::uint32_t>(c));
    if (c + 1 < n) row_ind.push_back(static_cast<std::uint32_t>(c + 1));
    col_ptr[c + 1] = static_cast<std::uint32_t>(row_ind.size());
  }
  std::vector<std::uint32_t> natural(n);
  for (std::uint32_t k = 0; k < n; ++k) natural[k] = k;
  EXPECT_EQ(ms::symbolic_fill(n, col_ptr, row_ind, natural), 2 * n - 1);
}

TEST(SparseSolver, OrderingSelectableAndReported) {
  const auto solve_with = [](ms::Ordering ord) {
    ms::SparseSolver s;
    s.set_ordering(ord);
    s.begin(4);
    for (std::size_t k = 0; k < 4; ++k) s.add(k, k, 2.0);
    s.add(0, 3, -1.0);
    s.add(3, 0, -1.0);
    std::vector<double> b{1.0, 2.0, 3.0, 4.0}, x;
    EXPECT_TRUE(s.solve(b, x));
    return std::string(s.ordering_used());
  };
  EXPECT_EQ(solve_with(ms::Ordering::Natural), "natural");
  EXPECT_EQ(solve_with(ms::Ordering::Rcm), "rcm");
  EXPECT_EQ(solve_with(ms::Ordering::Amd), "amd");
  const auto autopick = solve_with(ms::Ordering::Auto);
  EXPECT_TRUE(autopick == "rcm" || autopick == "amd");
}

// ---------------------------------------------------------------------------
// Partial refactorization (solver level)
// ---------------------------------------------------------------------------

TEST(SparsePartialRefactor, RestartsAtFirstChangedColumn) {
  const std::size_t n = 40;
  const auto stamp = [&](ms::SparseSolver& s, double tail) {
    s.begin(n);
    for (std::size_t k = 0; k < n; ++k) {
      s.add(k, k, k + 1 == n ? tail : 4.0);
      if (k > 0) s.add(k, k - 1, -1.0);
      if (k + 1 < n) s.add(k, k + 1, -1.0);
    }
  };
  ms::SparseSolver partial, full;
  partial.set_ordering(ms::Ordering::Natural);
  full.set_ordering(ms::Ordering::Natural);
  full.set_partial_refactor(false);

  std::vector<double> b(n, 1.0), xp, xf;
  stamp(partial, 4.0);
  ASSERT_TRUE(partial.solve(b, xp));
  EXPECT_EQ(partial.last_factor_start(), 0u);
  EXPECT_EQ(partial.factor_cols_total(), n);

  // Only the last column's value changes: under the natural ordering the
  // restart position is exactly n-1 and one column is recomputed.
  stamp(partial, 5.0);
  ASSERT_TRUE(partial.solve(b, xp));
  EXPECT_EQ(partial.last_factor_start(), n - 1);
  EXPECT_EQ(partial.factor_cols_total(), n + 1);

  stamp(full, 4.0);
  ASSERT_TRUE(full.solve(b, xf));
  stamp(full, 5.0);
  ASSERT_TRUE(full.solve(b, xf));
  EXPECT_EQ(full.factor_cols_total(), 2 * n);

  // Bit-for-bit: the reused prefix plus recomputed suffix is the same
  // factorization a full refactor computes.
  ASSERT_EQ(xp.size(), xf.size());
  for (std::size_t k = 0; k < n; ++k) EXPECT_EQ(xp[k], xf[k]) << "k=" << k;
}

TEST(SparsePartialRefactor, FullRestartWhenEarlyColumnChanges) {
  const std::size_t n = 10;
  ms::SparseSolver s;
  s.set_ordering(ms::Ordering::Natural);
  const auto stamp = [&](double head) {
    s.begin(n);
    for (std::size_t k = 0; k < n; ++k) {
      s.add(k, k, k == 0 ? head : 4.0);
      if (k > 0) s.add(k, k - 1, -1.0);
      if (k + 1 < n) s.add(k, k + 1, -1.0);
    }
  };
  std::vector<double> b(n, 1.0), x;
  stamp(4.0);
  ASSERT_TRUE(s.solve(b, x));
  stamp(3.0);
  ASSERT_TRUE(s.solve(b, x));
  EXPECT_EQ(s.last_factor_start(), 0u); // column 0 changed: full refactor
}

// ---------------------------------------------------------------------------
// Scattered (dirty-set) refactorization (solver level)
// ---------------------------------------------------------------------------

namespace {

/// Arrowhead system: diagonal + a dense last row/column. Changing one
/// early diagonal dirties exactly that column plus the arrow column (the
/// only one whose U depends on it) — the shape where a first-dirty-pivot
/// suffix restart recomputes nearly everything but the scattered path
/// replays just two columns.
template <typename T>
void stamp_arrowhead(ms::SparseSolverT<T>& s, std::size_t n, std::size_t c,
                     T changed_diag) {
  s.begin(n);
  for (std::size_t k = 0; k < n; ++k) {
    s.add(k, k, k == c ? changed_diag : T(4.0));
    if (k + 1 < n) {
      s.add(n - 1, k, T(-1.0));
      s.add(k, n - 1, T(-1.0));
    }
  }
}

} // namespace

TEST(SparseScatteredRefactor, SkipsCleanColumnsInsideSuffix) {
  const std::size_t n = 40, c = 5;
  ms::SparseSolver partial, full;
  partial.set_ordering(ms::Ordering::Natural);
  full.set_ordering(ms::Ordering::Natural);
  full.set_partial_refactor(false);

  std::vector<double> b(n, 1.0), xp, xf;
  stamp_arrowhead(partial, n, c, 4.0);
  ASSERT_TRUE(partial.solve(b, xp));
  EXPECT_EQ(partial.factor_cols_total(), n);
  EXPECT_EQ(partial.scattered_cols_total(), 0u);

  // Column c's diagonal changes: a suffix restart would recompute n - c
  // columns, the scattered path replays only column c and the arrow
  // column whose stored U references pivot c.
  stamp_arrowhead(partial, n, c, 5.0);
  ASSERT_TRUE(partial.solve(b, xp));
  EXPECT_EQ(partial.last_factor_start(), c);
  EXPECT_EQ(partial.factor_cols_total(), n + 2);
  EXPECT_EQ(partial.scattered_cols_total(), 2u);

  stamp_arrowhead(full, n, c, 4.0);
  ASSERT_TRUE(full.solve(b, xf));
  stamp_arrowhead(full, n, c, 5.0);
  ASSERT_TRUE(full.solve(b, xf));
  EXPECT_EQ(full.factor_cols_total(), 2 * n);
  ASSERT_EQ(xp.size(), xf.size());
  for (std::size_t k = 0; k < n; ++k) EXPECT_EQ(xp[k], xf[k]) << "k=" << k;
}

TEST(SparseScatteredRefactor, ComplexScatteredEngages) {
  using C = std::complex<double>;
  const std::size_t n = 40, c = 5;
  ms::SparseSolverT<C> partial, full;
  partial.set_ordering(ms::Ordering::Natural);
  full.set_ordering(ms::Ordering::Natural);
  full.set_partial_refactor(false);

  std::vector<C> b(n, C(1.0, 0.5)), xp, xf;
  stamp_arrowhead(partial, n, c, C(4.0, 1.0));
  ASSERT_TRUE(partial.solve(b, xp));
  stamp_arrowhead(partial, n, c, C(5.0, -1.0));
  ASSERT_TRUE(partial.solve(b, xp));
  EXPECT_EQ(partial.scattered_cols_total(), 2u);
  EXPECT_EQ(partial.factor_cols_total(), n + 2);

  stamp_arrowhead(full, n, c, C(4.0, 1.0));
  ASSERT_TRUE(full.solve(b, xf));
  stamp_arrowhead(full, n, c, C(5.0, -1.0));
  ASSERT_TRUE(full.solve(b, xf));
  for (std::size_t k = 0; k < n; ++k) EXPECT_EQ(xp[k], xf[k]) << "k=" << k;
}

TEST(SparseScatteredRefactor, RandomizedBitIdenticalUnderLocalUpdates) {
  // Tridiagonal chain plus random long-range couplings, driven through 30
  // rounds of localized value updates (including sign flips and magnitude
  // jumps that move the threshold-pivot choice, exercising the replay ->
  // suffix fallback). Every round must stay bit-identical to a
  // full-refactor reference.
  const std::size_t n = 60;
  std::mt19937 rng(0x5ca77e8d);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  std::uniform_real_distribution<double> mag(0.5, 8.0);

  // Static pattern: tridiagonal + 12 fixed random off-diagonal pairs.
  std::vector<std::pair<std::size_t, std::size_t>> extras;
  for (int e = 0; e < 12; ++e) {
    std::size_t i = pick(rng), j = pick(rng);
    if (i == j) continue;
    extras.emplace_back(i, j);
  }
  std::vector<double> diag(n, 6.0), off(extras.size(), -0.5);

  const auto stamp = [&](ms::SparseSolver& s) {
    s.begin(n);
    for (std::size_t k = 0; k < n; ++k) {
      s.add(k, k, diag[k]);
      if (k > 0) s.add(k, k - 1, -1.0);
      if (k + 1 < n) s.add(k, k + 1, -1.0);
    }
    for (std::size_t e = 0; e < extras.size(); ++e) {
      s.add(extras[e].first, extras[e].second, off[e]);
    }
  };

  ms::SparseSolver partial, full;
  full.set_partial_refactor(false);
  std::vector<double> b(n), xp, xf;
  for (std::size_t k = 0; k < n; ++k) b[k] = 0.1 * static_cast<double>(k);

  for (int round = 0; round < 30; ++round) {
    // Perturb a few values in place; every ~5th round shove one diagonal
    // towards zero so the column maximum (and the pivot row) moves.
    const int touches = 1 + round % 3;
    for (int t = 0; t < touches; ++t) diag[pick(rng)] = mag(rng);
    if (round % 5 == 4) diag[pick(rng)] = 1e-4;
    if (!extras.empty()) off[round % extras.size()] = -mag(rng);

    stamp(partial);
    ASSERT_TRUE(partial.solve(b, xp)) << "round " << round;
    stamp(full);
    ASSERT_TRUE(full.solve(b, xf)) << "round " << round;
    ASSERT_EQ(xp.size(), xf.size());
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(xp[k], xf[k]) << "round " << round << " k=" << k;
    }
  }
  // The rounds above must have taken the scattered path at least once —
  // otherwise this suite stopped covering what it was written for.
  EXPECT_GT(partial.scattered_cols_total(), 0u);
}

// ---------------------------------------------------------------------------
// Solver-level oracle: sparse LU vs dense LU on the assembled matrices
// ---------------------------------------------------------------------------

TEST(SparseOracle, StampedNetlistsMatchDenseLu) {
  for (std::uint32_t seed = 0; seed < kTotalSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto ckt = random_netlist(seed);
    dynamic_cast<ms::VoltageSource*>(ckt.elements()[0].get())->set_ac(1.0);
    const auto dc = ms::Engine(ckt).dc();
    ASSERT_TRUE(dc.converged);
    const bool big = seed >= kSmallSeeds;
    ms::oracle::expect_stamps_match_dense(
        ckt, dc.x, ms::log_sweep(1e7, big ? 1e9 : 1e10, 1));
    if (HasFatalFailure()) return;
  }
}

TEST(SparseOracle, NewtonSequenceMatchesDenseLu) {
  // One persistent solver for every nonlinear seed: a dimension change
  // resets it, and within a seed it carries its factorization across the
  // DC Newton iterates and the 25 transient steps across the pulse rise.
  ms::SparseSolver solver;
  std::size_t partial_solves = 0;
  for (std::uint32_t seed = 1; seed < kSmallSeeds; seed += 2) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto ckt = random_netlist(seed);
    const std::size_t cols_before = solver.factor_cols_total();
    const std::size_t factors_before = solver.factor_count();
    ms::oracle::expect_newton_sequence_matches_dense(ckt, solver, 25, 20e-12);
    if (HasFatalFailure()) return;
    // Fewer columns than full refactors would take: the partial path ran.
    if (solver.factor_cols_total() - cols_before <
        (solver.factor_count() - factors_before) * solver.dim()) {
      ++partial_solves;
    }
  }
  EXPECT_GT(partial_solves, 0u);
  EXPECT_GT(solver.scattered_cols_total(), 0u);
}

// ---------------------------------------------------------------------------
// Randomized equivalence: DC
// ---------------------------------------------------------------------------

TEST(RandomizedEquivalence, Dc) {
  for (std::uint32_t seed = 0; seed < kTotalSeeds; ++seed) {
    std::array<ms::DcResult, kConfigs.size()> results;
    for (std::size_t c = 0; c < kConfigs.size(); ++c) {
      auto ckt = random_netlist(seed);
      ms::Engine eng(ckt, engine_options(kConfigs[c]));
      results[c] = eng.dc();
      ASSERT_TRUE(results[c].converged)
          << kConfigs[c].label << " seed " << seed;
      ASSERT_EQ(results[c].x.size(), results[0].x.size());
    }
    for (std::size_t c = 1; c < kConfigs.size(); ++c) {
      for (std::size_t k = 0; k < results[0].x.size(); ++k) {
        ASSERT_NEAR(results[c].x[k], results[0].x[k], kTol)
            << kConfigs[c].label << " unknown " << k << " seed " << seed;
      }
    }
    for (const auto& [a, b] : kExactPairs) {
      for (std::size_t k = 0; k < results[a].x.size(); ++k) {
        ASSERT_EQ(results[a].x[k], results[b].x[k])
            << kConfigs[a].label << " vs " << kConfigs[b].label << " seed "
            << seed;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized equivalence: transient
// ---------------------------------------------------------------------------

TEST(RandomizedEquivalence, Transient) {
  constexpr double kDt = 20e-12;
  constexpr double kStop = 0.5e-9; // 25 steps across the pulse rise
  for (std::uint32_t seed = 0; seed < kTotalSeeds; ++seed) {
    std::array<ms::TransientResult, kConfigs.size()> results;
    for (std::size_t c = 0; c < kConfigs.size(); ++c) {
      auto ckt = random_netlist(seed);
      ms::Engine eng(ckt, engine_options(kConfigs[c]));
      results[c] = eng.transient(kStop, kDt);
      ASSERT_TRUE(results[c].converged())
          << kConfigs[c].label << " seed " << seed;
      ASSERT_EQ(results[c].size(), results[0].size());
    }
    const std::size_t dim = spec_for(seed).n_nodes;
    (void)dim;
    auto ref_ckt = random_netlist(seed);
    for (std::size_t n = 0; n < ref_ckt.node_count(); ++n) {
      const auto& name = ref_ckt.node_name(n);
      for (std::size_t k = 0; k < results[0].size(); ++k) {
        const double ref = results[0].v(name, k);
        for (std::size_t c = 1; c < kConfigs.size(); ++c) {
          ASSERT_NEAR(results[c].v(name, k), ref, kTol)
              << kConfigs[c].label << " node " << name << " step " << k
              << " seed " << seed;
        }
      }
    }
    for (const auto& [a, b] : kExactPairs) {
      for (std::size_t n = 0; n < ref_ckt.node_count(); ++n) {
        const auto& name = ref_ckt.node_name(n);
        for (std::size_t k = 0; k < results[a].size(); ++k) {
          ASSERT_EQ(results[a].v(name, k), results[b].v(name, k))
              << kConfigs[a].label << " vs " << kConfigs[b].label << " node "
              << name << " seed " << seed;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized equivalence: AC
// ---------------------------------------------------------------------------

TEST(RandomizedEquivalence, Ac) {
  for (std::uint32_t seed = 0; seed < kTotalSeeds; ++seed) {
    const bool big = seed >= kSmallSeeds;
    const auto freqs = ms::log_sweep(1e7, big ? 1e9 : 1e10, 1);
    std::array<ms::AcResult, kConfigs.size()> results;
    for (std::size_t c = 0; c < kConfigs.size(); ++c) {
      auto ckt = random_netlist(seed);
      dynamic_cast<ms::VoltageSource*>(ckt.elements()[0].get())->set_ac(1.0);
      ms::AcOptions aopt;
      aopt.ordering = kConfigs[c].ordering;
      aopt.stamp_cache = kConfigs[c].cache;
      results[c] = ms::ac_analysis(ckt, freqs, aopt);
      ASSERT_TRUE(results[c].converged())
          << kConfigs[c].label << " seed " << seed;
    }
    auto ref_ckt = random_netlist(seed);
    for (std::size_t n = 0; n < ref_ckt.node_count(); ++n) {
      const auto& name = ref_ckt.node_name(n);
      for (std::size_t k = 0; k < freqs.size(); ++k) {
        const auto ref = results[0].v(name, k);
        for (std::size_t c = 1; c < kConfigs.size(); ++c) {
          const auto got = results[c].v(name, k);
          ASSERT_NEAR(got.real(), ref.real(), kTol)
              << kConfigs[c].label << " node " << name << " f" << k
              << " seed " << seed;
          ASSERT_NEAR(got.imag(), ref.imag(), kTol)
              << kConfigs[c].label << " node " << name << " f" << k
              << " seed " << seed;
        }
        for (const auto& [a, b] : kExactPairs) {
          ASSERT_EQ(results[a].v(name, k), results[b].v(name, k))
              << kConfigs[a].label << " vs " << kConfigs[b].label << " node "
              << name << " seed " << seed;
        }
      }
    }
  }
}
