// Randomized solver-equivalence suite: generated netlists (R/C, pulse, PWL
// and DC sources, switches, MOSFETs, MTJs; 8-512 backbone nodes) checked at
// two levels.
//
// Solver level (SparseOracle): every netlist is stamped into the sparse LU
// at x = 0 and at its DC operating point (DC and transient contexts), and
// every solve must match a dense LU of the same assembled matrix
// (tests/dense_lu.hpp) within 1e-9. A persistent solver fed the successive
// Newton iterates of the nonlinear seeds must match a fresh dense solve at
// every step, so the dirty-value cache and the dirty-set replay are checked
// against the oracle.
//
// Engine level (RandomizedEquivalence), in DC and transient: Engine's
// result, the oracle Newton runner stamping through the elements' slot
// caches, and the same runner stamping per position (the uncached
// reference) are EXACTLY equal, bit for bit — the cache only skips
// position lookups, never changes an accumulation order.
//
// 108 generated netlists per analysis mode (>= the 100 the acceptance
// criterion asks for): 90 small ones (8-64 nodes, nonlinear devices on odd
// seeds) and 18 array-scale linear ones (96-512 nodes).
//
// Partial refactorization (PartialRefactor): a 16x16 array write whose
// target MTJ switches runs through the same runner on the default solver
// and on the full-refactor reference arm; the two must match bit for bit
// while the partial arm factors strictly fewer columns.
#include <cmath>
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cells/array_netlist.hpp"
#include "core/pdk.hpp"
#include "spice/elements.hpp"
#include "spice/engine.hpp"
#include "spice/mosfet.hpp"
#include "spice/mtj_element.hpp"
#include "spice/sparse.hpp"
#include "dense_lu.hpp"

namespace ms = mss::spice;

namespace {

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
/// diode-connected MOSFET clamp + enable switch) at a backbone node — the
/// structured shape that keeps Newton robust.
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
    ckt.add(std::make_unique<ms::Mosfet>("mclamp" + ts, n2, n2, ms::kGround,
                                         ms::MosModel::nmos(), 360e-9,
                                         45e-9));
  }
  if ((gen() & 1u) != 0) {
    ckt.add(std::make_unique<ms::Switch>("scell" + ts, n1, ms::kGround,
                                         gate_node, ms::kGround, 0.55, 10e3,
                                         1e9));
  }
}

/// Deterministic random netlist: resistive backbone chain driven by a
/// pulse source, per-node ground capacitors, random cross links, extra
/// voltage sources (branch rows) feeding backbone nodes through series
/// resistors, a PWL current source, and (for nonlinear specs) bit-cell
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
  // Cross links make the graph meshy.
  const std::size_t n_cross = 2 + spec.n_nodes / 8;
  for (std::size_t x = 0; x < n_cross; ++x) {
    const std::size_t a = gen() % spec.n_nodes;
    const std::size_t b = gen() % spec.n_nodes;
    if (a == b) continue;
    ckt.add(std::make_unique<ms::Resistor>("rx" + std::to_string(x), nodes[a],
                                           nodes[b], ur(gen)));
  }
  // A DC source feeds the midpoint through a series resistor.
  const int mid = ckt.node("vmid");
  ckt.add(std::make_unique<ms::VoltageSource>(
      "vmid", mid, ms::kGround, std::make_unique<ms::DcWave>(0.4)));
  ckt.add(std::make_unique<ms::Resistor>("rmid", mid,
                                         nodes[spec.n_nodes / 2], ur(gen)));
  if (spec.n_nodes >= 12) {
    ckt.add(std::make_unique<ms::CurrentSource>(
        "iaux", nodes[spec.n_nodes / 3], ms::kGround,
        std::make_unique<ms::PwlWave>(std::vector<std::pair<double, double>>{
            {0.0, 0.0}, {0.15e-9, 50e-6}, {0.35e-9, -50e-6}})));
  }
  if (spec.n_nodes >= 16 && (gen() & 1u) != 0) {
    const int aux = ckt.node("vaux");
    ckt.add(std::make_unique<ms::VoltageSource>(
        "vaux", aux, ms::kGround,
        std::make_unique<ms::PulseWave>(0.0, 0.5, 0.1e-9, 40e-12, 40e-12,
                                        1e-9)));
    ckt.add(std::make_unique<ms::Resistor>("raux", aux,
                                           nodes[spec.n_nodes - 2], ur(gen)));
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

/// RCM order of the n x n pattern `pos` of (row, col) positions — the
/// order the solver factors that pattern's columns in (order[k] is the
/// column at pivot position k).
[[nodiscard]] std::vector<std::uint32_t> rcm_of(
    std::size_t n, std::vector<std::pair<std::uint32_t, std::uint32_t>> pos) {
  std::sort(pos.begin(), pos.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second < b.second : a.first < b.first;
  });
  std::vector<std::uint32_t> col_ptr(n + 1, 0), row_ind;
  for (const auto& [r, c] : pos) {
    ++col_ptr[c + 1];
    row_ind.push_back(r);
  }
  for (std::size_t c = 0; c < n; ++c) col_ptr[c + 1] += col_ptr[c];
  return ms::rcm_order(n, col_ptr, row_ind);
}

/// The (row, col) pattern of an n x n tridiagonal chain.
[[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>>
chain_pattern(std::uint32_t n) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pos;
  for (std::uint32_t k = 0; k < n; ++k) {
    pos.emplace_back(k, k);
    if (k > 0) pos.emplace_back(k, k - 1);
    if (k + 1 < n) pos.emplace_back(k, k + 1);
  }
  return pos;
}

} // namespace

// ---------------------------------------------------------------------------
// Partial refactorization (solver level)
// ---------------------------------------------------------------------------

TEST(SparsePartialRefactor, RestartsAtFirstChangedColumn) {
  const std::size_t n = 40;
  // The column RCM factors last.
  const std::size_t tail_col = rcm_of(n, chain_pattern(n))[n - 1];
  const auto stamp = [&](ms::SparseSolver& s, double tail) {
    s.begin(n);
    for (std::size_t k = 0; k < n; ++k) {
      s.add(k, k, k == tail_col ? tail : 4.0);
      if (k > 0) s.add(k, k - 1, -1.0);
      if (k + 1 < n) s.add(k, k + 1, -1.0);
    }
  };
  ms::SparseSolver partial, full;
  full.set_partial_refactor(false);

  std::vector<double> b(n, 1.0), xp, xf;
  stamp(partial, 4.0);
  ASSERT_TRUE(partial.solve(b, xp));
  EXPECT_EQ(partial.last_factor_start(), 0u);
  EXPECT_EQ(partial.factor_cols_total(), n);

  // Only the last-ordered column's value changes: the restart position is
  // exactly n-1 and one column is recomputed.
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
  // The column RCM factors first.
  const std::size_t head_col = rcm_of(n, chain_pattern(n))[0];
  ms::SparseSolver s;
  const auto stamp = [&](double head) {
    s.begin(n);
    for (std::size_t k = 0; k < n; ++k) {
      s.add(k, k, k == head_col ? head : 4.0);
      if (k > 0) s.add(k, k - 1, -1.0);
      if (k + 1 < n) s.add(k, k + 1, -1.0);
    }
  };
  std::vector<double> b(n, 1.0), x;
  stamp(4.0);
  ASSERT_TRUE(s.solve(b, x));
  stamp(3.0);
  ASSERT_TRUE(s.solve(b, x));
  EXPECT_EQ(s.last_factor_start(), 0u); // first column changed: all recomputed
}

// ---------------------------------------------------------------------------
// Dirty-set replay and its suffix-restart fallback (solver level)
// ---------------------------------------------------------------------------

namespace {

/// Arrowhead system: diagonal + a dense last row/column (the hub, unknown
/// n-1). Changing one early leaf diagonal dirties that column, the hub
/// column (its U references every leaf factored before it) and every leaf
/// column factored after the hub (their U references the hub) — the shape
/// where a first-dirty-pivot suffix restart would recompute nearly
/// everything but the replay recomputes just those few columns.
void stamp_arrowhead(ms::SparseSolver& s, std::size_t n, std::size_t c,
                     double changed_diag) {
  s.begin(n);
  for (std::size_t k = 0; k < n; ++k) {
    s.add(k, k, k == c ? changed_diag : 4.0);
    if (k + 1 < n) {
      s.add(n - 1, k, -1.0);
      s.add(k, n - 1, -1.0);
    }
  }
}

/// The (row, col) pattern `stamp_arrowhead` stamps.
[[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>>
arrowhead_pattern(std::uint32_t n) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pos;
  for (std::uint32_t k = 0; k < n; ++k) {
    pos.emplace_back(k, k);
    if (k + 1 < n) {
      pos.emplace_back(n - 1, k);
      pos.emplace_back(k, n - 1);
    }
  }
  return pos;
}

} // namespace

TEST(SparseScatteredRefactor, SkipsCleanColumnsInsideSuffix) {
  const std::size_t n = 40, p = 5;
  const auto order = rcm_of(n, arrowhead_pattern(n));
  const std::size_t c = order[p]; // the leaf factored at position p
  const std::size_t hub_pos =
      std::find(order.begin(), order.end(), n - 1) - order.begin();
  ASSERT_GT(hub_pos, p);
  // Column c, the hub and the leaves after the hub.
  const std::size_t replayed = 2 + (n - 1 - hub_pos);
  ms::SparseSolver partial, full;
  full.set_partial_refactor(false);

  std::vector<double> b(n, 1.0), xp, xf;
  stamp_arrowhead(partial, n, c, 4.0);
  ASSERT_TRUE(partial.solve(b, xp));
  EXPECT_EQ(partial.factor_cols_total(), n);
  EXPECT_EQ(partial.scattered_cols_total(), 0u);

  // Column c's diagonal changes: a suffix restart would recompute n - p
  // columns, the replay recomputes only the dirty ones.
  stamp_arrowhead(partial, n, c, 5.0);
  ASSERT_TRUE(partial.solve(b, xp));
  EXPECT_EQ(partial.last_factor_start(), p);
  EXPECT_EQ(partial.factor_cols_total(), n + replayed);
  EXPECT_EQ(partial.scattered_cols_total(), replayed);

  stamp_arrowhead(full, n, c, 4.0);
  ASSERT_TRUE(full.solve(b, xf));
  stamp_arrowhead(full, n, c, 5.0);
  ASSERT_TRUE(full.solve(b, xf));
  EXPECT_EQ(full.factor_cols_total(), 2 * n);
  ASSERT_EQ(xp.size(), xf.size());
  for (std::size_t k = 0; k < n; ++k) EXPECT_EQ(xp[k], xf[k]) << "k=" << k;
}

TEST(SparseScatteredRefactor, PivotMoveFallsBackToSuffixRestart) {
  // Column c's diagonal drops below kPivotTol of the hub entry in its
  // column, so its threshold pivot moves to the hub row: the replay of
  // position p deviates at once and the suffix from p is refactored —
  // more columns than the dirty set the replay would have touched.
  const std::size_t n = 40, p = 5;
  const auto order = rcm_of(n, arrowhead_pattern(n));
  const std::size_t c = order[p];
  const std::size_t hub_pos =
      std::find(order.begin(), order.end(), n - 1) - order.begin();
  ASSERT_GT(hub_pos, p);
  const std::size_t dirty_set = 2 + (n - 1 - hub_pos);
  ASSERT_LT(dirty_set, n - p);
  ms::SparseSolver partial, full;
  full.set_partial_refactor(false);

  std::vector<double> b(n, 1.0), xp, xf;
  stamp_arrowhead(partial, n, c, 4.0);
  ASSERT_TRUE(partial.solve(b, xp));
  stamp_arrowhead(partial, n, c, 1e-3);
  ASSERT_TRUE(partial.solve(b, xp));
  EXPECT_EQ(partial.last_factor_start(), p);
  EXPECT_GT(partial.factor_cols_total() - n, dirty_set);
  EXPECT_EQ(partial.factor_cols_total(), n + (n - p));
  EXPECT_EQ(partial.scattered_cols_total(), 0u);

  stamp_arrowhead(full, n, c, 4.0);
  ASSERT_TRUE(full.solve(b, xf));
  stamp_arrowhead(full, n, c, 1e-3);
  ASSERT_TRUE(full.solve(b, xf));
  ASSERT_EQ(xp.size(), xf.size());
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
  // The rounds above must have committed a replay at least once —
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
    const auto dc = ms::Engine(ckt).dc();
    ASSERT_TRUE(dc.converged);
    ms::oracle::expect_stamps_match_dense(ckt, dc.x);
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
    (void)ms::oracle::newton_sequence(ckt, solver, 25, 20e-12);
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
// Randomized equivalence: Engine == cached stamping == uncached stamping
// ---------------------------------------------------------------------------

namespace {

/// Every node of a random_netlist(seed) circuit as a `v(<node>)` probe,
/// with its unknown index. The circuit keeps no node names, so this lists
/// every name random_netlist can create and keeps the ones that exist.
[[nodiscard]] std::vector<std::pair<std::string, std::size_t>> node_probes(
    const ms::Circuit& ckt, std::uint32_t seed) {
  std::vector<std::string> names = {"vmid", "vaux"};
  for (std::size_t k = 0; k < spec_for(seed).n_nodes; ++k) {
    names.push_back("n" + std::to_string(k));
  }
  for (int c = 0; c < 3; ++c) {
    names.push_back("cell" + std::to_string(c) + ".1");
    names.push_back("cell" + std::to_string(c) + ".2");
  }
  std::vector<std::pair<std::string, std::size_t>> out;
  for (const auto& name : names) {
    try {
      const auto idx = static_cast<std::size_t>(ckt.find_node(name));
      out.emplace_back("v(" + name + ")", idx);
    } catch (const std::out_of_range&) {
      // not created for this seed
    }
  }
  return out;
}

/// The oracle Newton runner over a fresh copy of netlist `seed`, dense
/// check off, stamping through the slot caches or per position.
[[nodiscard]] std::vector<std::vector<double>> driven_states(
    std::uint32_t seed, std::size_t steps, double dt, bool slot_cache) {
  auto ckt = random_netlist(seed);
  ms::SparseSolver solver;
  return ms::oracle::newton_sequence(
      ckt, solver, steps, dt, {.dense_check = false, .slot_cache = slot_cache});
}

} // namespace

TEST(RandomizedEquivalence, Dc) {
  for (std::uint32_t seed = 0; seed < kTotalSeeds; ++seed) {
    auto ckt = random_netlist(seed);
    const auto dc = ms::Engine(ckt).dc();
    ASSERT_TRUE(dc.converged) << "seed " << seed;
    for (const bool cache : {true, false}) {
      const auto states = driven_states(seed, 0, 0.0, cache);
      ASSERT_FALSE(HasFatalFailure());
      ASSERT_EQ(states.front().size(), dc.x.size());
      for (std::size_t k = 0; k < dc.x.size(); ++k) {
        ASSERT_EQ(states.front()[k], dc.x[k])
            << (cache ? "cached" : "uncached") << " unknown " << k << " seed "
            << seed;
      }
    }
  }
}

TEST(RandomizedEquivalence, Transient) {
  constexpr double kDt = 20e-12;
  constexpr std::size_t kSteps = 25; // 0.5 ns across the pulse rise
  for (std::uint32_t seed = 0; seed < kTotalSeeds; ++seed) {
    auto ckt = random_netlist(seed);
    const auto nodes = node_probes(ckt, seed);
    ASSERT_EQ(nodes.size(), ckt.node_count()) << "seed " << seed;
    std::vector<std::string> probes;
    for (const auto& [probe, idx] : nodes) probes.push_back(probe);
    const auto tr =
        ms::Engine(ckt).transient(double(kSteps) * kDt, kDt, probes);
    ASSERT_TRUE(tr.converged()) << "seed " << seed;
    ASSERT_EQ(tr.size(), kSteps + 1);
    for (const bool cache : {true, false}) {
      const auto states = driven_states(seed, kSteps, kDt, cache);
      ASSERT_FALSE(HasFatalFailure());
      ASSERT_EQ(states.size(), tr.size());
      for (const auto& [probe, idx] : nodes) {
        const auto& w = tr.waveform(probe);
        for (std::size_t k = 0; k < tr.size(); ++k) {
          ASSERT_EQ(states[k][idx], w[k])
              << (cache ? "cached" : "uncached") << " " << probe
              << " step " << k << " seed " << seed;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Partial refactorization: engine-level bit identity on a Newton transient
// ---------------------------------------------------------------------------

TEST(PartialRefactor, NewtonTransientBitIdenticalAndCheaper) {
  namespace mc = mss::cells;
  const mss::core::Pdk pdk;
  mc::ArrayNetlistOptions opt;
  opt.rows = opt.cols = 16;
  // 5 ns switches the default-PDK target cell (~3.4 ns after the pulse
  // starts), so the switching event's Newton iterations are covered.
  const double pulse = 5e-9;
  const auto steps = static_cast<std::size_t>(
      std::llround((0.5e-9 + pulse + 1.0e-9) / opt.sim_dt));

  auto partial_net = mc::build_array_write_netlist(
      pdk, opt, mss::core::WriteDirection::ToAntiparallel, pulse);
  auto full_net = mc::build_array_write_netlist(
      pdk, opt, mss::core::WriteDirection::ToAntiparallel, pulse);

  // The Engine's Newton transient, once on the default solver and once on
  // the full-refactor reference arm (dense check off: dim is in the
  // hundreds).
  const ms::oracle::SequenceArms arms{.dense_check = false};
  ms::SparseSolver partial, full;
  full.set_partial_refactor(false);
  const auto ptr_states =
      ms::oracle::newton_sequence(partial_net.circuit, partial, steps,
                                  opt.sim_dt, arms);
  ASSERT_FALSE(HasFatalFailure());
  const auto ful_states =
      ms::oracle::newton_sequence(full_net.circuit, full, steps, opt.sim_dt,
                                  arms);
  ASSERT_FALSE(HasFatalFailure());

  // Both arms see the target switch.
  ASSERT_FALSE(partial_net.target_mtj->flip_times().empty());
  ASSERT_FALSE(full_net.target_mtj->flip_times().empty());

  // Bit-for-bit identical waveforms...
  ASSERT_EQ(ptr_states.size(), steps + 1);
  ASSERT_EQ(ful_states.size(), steps + 1);
  for (std::size_t k = 0; k <= steps; ++k) {
    for (std::size_t n = 0; n < ptr_states[k].size(); ++n) {
      ASSERT_EQ(ptr_states[k][n], ful_states[k][n])
          << "unknown " << n << " step " << k;
    }
  }
  // ...and identical MTJ trajectories...
  EXPECT_EQ(partial_net.target_mtj->state(), full_net.target_mtj->state());
  ASSERT_EQ(partial_net.target_mtj->flip_times().size(),
            full_net.target_mtj->flip_times().size());
  for (std::size_t k = 0; k < partial_net.target_mtj->flip_times().size();
       ++k) {
    EXPECT_EQ(partial_net.target_mtj->flip_times()[k],
              full_net.target_mtj->flip_times()[k]);
  }
  // ...with the same number of (re)factorizations but strictly fewer
  // recomputed columns — the partial path actually kicked in.
  EXPECT_EQ(partial.factor_count(), full.factor_count());
  EXPECT_LT(partial.factor_cols_total(), full.factor_cols_total());
}
