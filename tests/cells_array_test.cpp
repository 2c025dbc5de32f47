// Array-scale characterisation through the sparse MNA solver: netlist
// builder invariants, the 64 x 64 write/read acceptance runs, golden write/read outputs, and the
// nvsim SPICE calibration.
#include <cmath>
#include <gtest/gtest.h>

#include "cells/array_netlist.hpp"
#include "cells/characterization.hpp"
#include "core/pdk.hpp"
#include "nvsim/array_model.hpp"

namespace mc = mss::core;
using mss::cells::ArrayNetlistOptions;

namespace {

ArrayNetlistOptions small_opt() {
  ArrayNetlistOptions o;
  o.rows = 8;
  o.cols = 8;
  o.segments = 4;
  return o;
}

} // namespace

TEST(ArrayNetlist, BuildShape) {
  const mc::Pdk pdk;
  auto o = small_opt();
  auto net = mss::cells::build_array_write_netlist(
      pdk, o, mc::WriteDirection::ToAntiparallel, 5e-9);
  ASSERT_NE(net.target_mtj, nullptr);
  EXPECT_EQ(net.row_mtjs.size(), o.cols);
  // One device cell per column on the selected row.
  for (const auto* m : net.row_mtjs) EXPECT_NE(m, nullptr);
  // Unknowns: cols bitlines * segments+1 nodes, wordline chain, internal +
  // SL nodes, and the three source branches.
  EXPECT_GT(net.dim, o.cols * o.segments);
  // The write must flip P -> AP, so the target starts parallel.
  EXPECT_EQ(net.target_mtj->state(), mc::MtjState::Parallel);
}

TEST(ArrayNetlist, RejectsBadOrganisation) {
  const mc::Pdk pdk;
  ArrayNetlistOptions o;
  o.rows = 0;
  EXPECT_THROW((void)mss::cells::build_array_write_netlist(
                   pdk, o, mc::WriteDirection::ToParallel, 1e-9),
               std::invalid_argument);
  o = small_opt();
  o.target_col = o.cols;
  EXPECT_THROW((void)mss::cells::build_array_read_netlist(
                   pdk, o, mc::MtjState::Parallel, 1e-9),
               std::invalid_argument);
}

TEST(ArrayCharacterization, SixtyFourBySixtyFourWriteSwitchesSparse) {
  // The acceptance-scale run: a 64 x 64 bitcell array write transient
  // through the sparse solver.
  const mc::Pdk pdk;
  ArrayNetlistOptions o; // defaults: 64 x 64, 8 RC segments per line
  const auto wr = mss::cells::characterize_array_write(
      pdk, o, mc::WriteDirection::ToAntiparallel, 6e-9);
  ASSERT_TRUE(wr.converged);
  EXPECT_EQ(wr.backend, "sparse");
  EXPECT_TRUE(wr.switched);
  EXPECT_GT(wr.t_switch, 0.0);
  EXPECT_GT(wr.energy, 0.0);
  EXPECT_GT(wr.i_peak, 10e-6); // MTJ write currents are tens of uA
}

TEST(ArrayCharacterization, SixtyFourFullFidelityBitlineGrid) {
  // Full fidelity: one RC segment per cell -> ~4.4k unknowns, a system
  // a dense LU could not practically factor per Newton iteration.
  const mc::Pdk pdk;
  ArrayNetlistOptions o;
  o.segments = 0;
  const auto wr = mss::cells::characterize_array_write(
      pdk, o, mc::WriteDirection::ToAntiparallel, 6e-9);
  ASSERT_TRUE(wr.converged);
  EXPECT_EQ(wr.backend, "sparse");
  EXPECT_GT(wr.dim, 4000u);
  EXPECT_TRUE(wr.switched);
}

TEST(ArrayCharacterization, ReadMarginPositiveAtArrayScale) {
  const mc::Pdk pdk;
  ArrayNetlistOptions o; // 64 x 64
  const auto rd = mss::cells::characterize_array_read(pdk, o, 2e-9);
  EXPECT_EQ(rd.backend, "sparse");
  EXPECT_GT(rd.i_cell_p, rd.i_cell_ap); // P reads more current than AP
  EXPECT_GT(rd.delta_i, 1e-6);          // margin above a uA
  EXPECT_GT(rd.energy_read, 0.0);
}

// ---------------------------------------------------------------------------
// Golden outputs: the array characterisation numbers pinned, so a solver
// refactor that moves the physics fails here. Counts are exact; analog
// values agree to a relative 1e-9 (the factorization-order rounding
// contract). factor_cols is deliberately not pinned: it measures solver
// work, not physics.
// ---------------------------------------------------------------------------

namespace {

constexpr double kGoldenRel = 1e-9;

struct WriteGolden {
  std::size_t rows;
  std::size_t segments;
  mc::WriteDirection dir;
  std::size_t dim;
  std::size_t steps;
  double t_switch;
  double energy;
  double i_peak;
};

void expect_rel(double got, double want, const char* what) {
  EXPECT_NEAR(got, want, kGoldenRel * std::abs(want)) << what;
}

} // namespace

TEST(ArrayGolden, WriteOutputsPinned) {
  const mc::Pdk pdk;
  constexpr auto kP = mc::WriteDirection::ToParallel;
  constexpr auto kAp = mc::WriteDirection::ToAntiparallel;
  const WriteGolden cases[] = {
      {64, 8, kP, 716, 325, 1.4799999999999999e-09, 7.8283603662430296e-13,
       0.00014884602871425358},
      {64, 8, kAp, 716, 325, 3.48e-09, 4.2450241612719137e-13,
       8.4306212950233716e-05},
      {256, 8, kP, 2828, 325, 1.5200000000000001e-09, 7.6629654600539963e-13,
       0.0001454093176186882},
      {256, 8, kAp, 2828, 325, 3.6199999999999999e-09,
       4.1899158463985756e-13, 8.252057070372873e-05},
      // Full fidelity: one RC segment per cell.
      {64, 0, kAp, 4356, 325, 3.48e-09, 4.2450199797291263e-13,
       8.423573383889305e-05},
  };
  for (const auto& g : cases) {
    SCOPED_TRACE(::testing::Message()
                 << g.rows << "^2 segments=" << g.segments << " dir="
                 << (g.dir == kP ? "P" : "AP"));
    ArrayNetlistOptions o;
    o.rows = o.cols = g.rows;
    o.segments = g.segments;
    const auto wr = mss::cells::characterize_array_write(pdk, o, g.dir, 5e-9);
    EXPECT_TRUE(wr.switched);
    EXPECT_TRUE(wr.converged);
    EXPECT_EQ(wr.dim, g.dim);
    EXPECT_EQ(wr.steps, g.steps);
    expect_rel(wr.t_switch, g.t_switch, "t_switch");
    expect_rel(wr.energy, g.energy, "energy");
    expect_rel(wr.i_peak, g.i_peak, "i_peak");
  }
}

TEST(ArrayGolden, ReadOutputsPinned) {
  const mc::Pdk pdk;
  ArrayNetlistOptions o; // 64 x 64, 8 segments
  const auto rd = mss::cells::characterize_array_read(pdk, o, 2e-9);
  EXPECT_EQ(rd.dim, 716u);
  EXPECT_EQ(rd.steps, 140u);
  expect_rel(rd.delta_i, 7.1482269999999993e-06, "delta_i");
}

TEST(ArrayCharacterization, FarRowSwitchesNoFasterThanNearRow) {
  // Bitline RC to the far row can only slow the write down.
  const mc::Pdk pdk;
  ArrayNetlistOptions near = small_opt(), far = small_opt();
  near.rows = 32;
  far.rows = 32;
  near.target_row = 0;
  far.target_row = 31;
  const auto wn = mss::cells::characterize_array_write(
      pdk, near, mc::WriteDirection::ToAntiparallel, 6e-9);
  const auto wf = mss::cells::characterize_array_write(
      pdk, far, mc::WriteDirection::ToAntiparallel, 6e-9);
  ASSERT_TRUE(wn.switched);
  ASSERT_TRUE(wf.switched);
  EXPECT_GE(wf.t_switch, wn.t_switch - 1e-12);
}

TEST(NvsimSpiceCalibration, AgreesWithAnalyticWithinFactorTwo) {
  const mc::Pdk pdk;
  mss::nvsim::ArrayOrg org;
  org.rows = 64;
  org.cols = 64;
  org.word_bits = 32;
  const mss::nvsim::ArrayModel am(pdk, org);
  const auto analytic = am.estimate();
  const auto spice = am.estimate_spice();
  EXPECT_GT(spice.write_latency, 0.5 * analytic.write_latency);
  EXPECT_LT(spice.write_latency, 2.0 * analytic.write_latency);
  EXPECT_GT(spice.read_latency, 0.5 * analytic.read_latency);
  EXPECT_LT(spice.read_latency, 2.0 * analytic.read_latency);
  // The SPICE-extracted switching time replaces the analytic one.
  EXPECT_GT(spice.t_mtj_switch, 0.0);
}
