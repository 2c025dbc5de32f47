// Adaptive transient stepping and partial refactorization, engine level:
//  * LTE step-doubling controller accuracy on an analytically known RC;
//  * source-breakpoint preservation (pulse corners are sample points);
//  * golden regression: the 64x64 array write characterised with adaptive
//    stepping matches the fixed-step reference waveform within tolerance
//    while taking >= 2x fewer steps;
//  * partial-refactorization Newton solves match full-refactor solves
//    bit for bit while factoring strictly fewer columns (driven through
//    the solver's full-refactor reference arm, tests/dense_lu.hpp).
#include <cmath>
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "cells/array_netlist.hpp"
#include "cells/characterization.hpp"
#include "core/pdk.hpp"
#include "spice/elements.hpp"
#include "spice/engine.hpp"
#include "dense_lu.hpp"

namespace ms = mss::spice;
namespace mc = mss::cells;

namespace {

/// Series RC driven by a 1 V step (fast pulse rise): v_out follows the
/// textbook exponential, tau = RC.
ms::Circuit rc_circuit() {
  ms::Circuit ckt;
  const int in = ckt.node("in");
  const int out = ckt.node("out");
  ckt.add(std::make_unique<ms::VoltageSource>(
      "vin", in, ms::kGround,
      std::make_unique<ms::PulseWave>(0.0, 1.0, 0.1e-9, 10e-12, 10e-12,
                                      50e-9)));
  ckt.add(std::make_unique<ms::Resistor>("r", in, out, 1e3));
  ckt.add(std::make_unique<ms::Capacitor>("c", out, ms::kGround, 1e-12));
  return ckt;
}

} // namespace

TEST(AdaptiveTransient, TracksRcChargeCurve) {
  auto fixed_ckt = rc_circuit();
  auto adapt_ckt = rc_circuit();
  ms::Engine fixed_eng(fixed_ckt);
  ms::Engine adapt_eng(adapt_ckt);

  const double t_stop = 5e-9;
  const auto fixed = fixed_eng.transient(t_stop, 5e-12);
  ms::AdaptiveOptions aopt;
  aopt.ltol_rel = 1e-4; // tighter LTE -> tighter waveform match
  const auto adapt = adapt_eng.transient_adaptive(t_stop, 5e-12, aopt);
  ASSERT_TRUE(fixed.converged());
  ASSERT_TRUE(adapt.converged());

  // Accuracy: within a few mV of the dense fixed-step reference anywhere.
  for (std::size_t k = 0; k < fixed.size(); ++k) {
    EXPECT_NEAR(adapt.v_at("out", fixed.times()[k]), fixed.v("out", k), 5e-3)
        << "t=" << fixed.times()[k];
  }
  // Efficiency: the controller must beat the uniform grid by >= 2x.
  EXPECT_LE(2 * adapt.accepted_steps(), fixed.accepted_steps());
}

TEST(AdaptiveTransient, LandsOnPulseBreakpoints) {
  auto ckt = rc_circuit();
  ms::Engine eng(ckt);
  const auto tr = eng.transient_adaptive(5e-9, 5e-12);
  ASSERT_TRUE(tr.converged());
  // PULSE(0 1 0.1n 10p 10p 50n): delay and both rise corners are inside
  // the run and must appear exactly among the sample times.
  for (const double bp : {0.1e-9, 0.11e-9}) {
    const bool found =
        std::any_of(tr.times().begin(), tr.times().end(),
                    [&](double t) { return std::abs(t - bp) < 1e-18; });
    EXPECT_TRUE(found) << "missing breakpoint " << bp;
  }
  // The run ends exactly at t_stop.
  EXPECT_DOUBLE_EQ(tr.times().back(), 5e-9);
}

TEST(AdaptiveTransient, RejectionsAreCountedAndBounded) {
  auto ckt = rc_circuit();
  ms::Engine eng(ckt);
  const auto tr = eng.transient_adaptive(5e-9, 5e-12);
  // The controller may reject steps (growing into the exponential), but a
  // healthy run accepts far more than it rejects.
  EXPECT_LT(tr.rejected_steps(), tr.accepted_steps());
}

// ---------------------------------------------------------------------------
// Golden regression: 64x64 array write, adaptive vs fixed reference
// ---------------------------------------------------------------------------

TEST(AdaptiveArrayGolden, MatchesFixedStepReferenceWithHalfTheSteps) {
  const mss::core::Pdk pdk;
  mc::ArrayNetlistOptions opt; // 64 x 64
  const double pulse = 5e-9;
  const double t_start = 0.5e-9;
  const double t_stop = t_start + pulse + 1.0e-9;

  auto fixed_net = mc::build_array_write_netlist(
      pdk, opt, mss::core::WriteDirection::ToAntiparallel, pulse);
  auto adapt_net = mc::build_array_write_netlist(
      pdk, opt, mss::core::WriteDirection::ToAntiparallel, pulse);

  ms::Engine fixed_eng(fixed_net.circuit);
  ms::Engine adapt_eng(adapt_net.circuit);
  const auto fixed = fixed_eng.transient(t_stop, opt.sim_dt);
  ms::AdaptiveOptions aopt;
  const auto adapt = adapt_eng.transient_adaptive(t_stop, opt.sim_dt, aopt);
  ASSERT_TRUE(fixed.converged());
  ASSERT_TRUE(adapt.converged());

  // Waveform match at the fixed-step sample times on the nodes that define
  // the write: the bitline at the target cell and the cell's source line.
  for (const std::string node :
       {fixed_net.bl_cell_node, std::string("sl.0")}) {
    for (std::size_t k = 0; k < fixed.size(); ++k) {
      ASSERT_NEAR(adapt.v_at(node, fixed.times()[k]), fixed.v(node, k),
                  0.05)
          << "node " << node << " t=" << fixed.times()[k];
    }
  }

  // The write outcome agrees: same final state, switching delay within a
  // few fixed-grid steps.
  ASSERT_NE(fixed_net.target_mtj, nullptr);
  ASSERT_NE(adapt_net.target_mtj, nullptr);
  EXPECT_EQ(fixed_net.target_mtj->state(), adapt_net.target_mtj->state());
  ASSERT_FALSE(fixed_net.target_mtj->flip_times().empty());
  ASSERT_FALSE(adapt_net.target_mtj->flip_times().empty());
  EXPECT_NEAR(adapt_net.target_mtj->flip_times().front(),
              fixed_net.target_mtj->flip_times().front(), 0.3e-9);

  // >= 2x fewer steps than the uniform reference grid.
  EXPECT_LE(2 * adapt.accepted_steps(), fixed.accepted_steps())
      << "adaptive " << adapt.accepted_steps() << " vs fixed "
      << fixed.accepted_steps();
}

TEST(AdaptiveArrayGolden, CharacterizationDriverWiresAdaptiveStepping) {
  const mss::core::Pdk pdk;
  mc::ArrayNetlistOptions fixed_opt;
  fixed_opt.rows = fixed_opt.cols = 16;
  mc::ArrayNetlistOptions adapt_opt = fixed_opt;
  adapt_opt.adaptive_step = true;

  const auto fixed = mc::characterize_array_write(
      pdk, fixed_opt, mss::core::WriteDirection::ToAntiparallel, 5e-9);
  const auto adapt = mc::characterize_array_write(
      pdk, adapt_opt, mss::core::WriteDirection::ToAntiparallel, 5e-9);
  ASSERT_TRUE(fixed.converged);
  ASSERT_TRUE(adapt.converged);
  EXPECT_TRUE(fixed.switched);
  EXPECT_TRUE(adapt.switched);
  EXPECT_LE(2 * adapt.steps, fixed.steps);
  EXPECT_NEAR(adapt.t_switch, fixed.t_switch, 0.3e-9);
  // Energy integrates the same waveform on a coarser grid.
  EXPECT_NEAR(adapt.energy, fixed.energy, 0.15 * std::abs(fixed.energy));
}

// ---------------------------------------------------------------------------
// Partial refactorization: engine-level bit identity on Newton transients
// ---------------------------------------------------------------------------

TEST(PartialRefactor, NewtonTransientBitIdenticalAndCheaper) {
  const mss::core::Pdk pdk;
  mc::ArrayNetlistOptions opt;
  opt.rows = opt.cols = 16;
  const double pulse = 3e-9;
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
