// Tests of the WER-vs-pulse-width scenario family (core::WerScenario) and
// of the ECC extension of the retention designer — the two consumers of
// the analytic deep-tail layer (src/math/special) outside the estimator.

#include <cmath>
#include <cstddef>
#include <iterator>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/retention.hpp"
#include "core/wer_scenario.hpp"
#include "math/special.hpp"
#include "util/parallel.hpp"

namespace {

using mss::core::MtjParams;
using mss::core::RetentionDesigner;
using mss::core::WerScenario;
using mss::core::WerScenarioConfig;
using mss::core::WerScenarioPoint;

WerScenarioConfig analytic_config() {
  // Default stack: 0.35/0.45 V drive 1.25x/1.6x the critical current —
  // supercritical at every point, so both closed forms report real tails.
  WerScenarioConfig cfg;
  cfg.pulse_widths = {3e-9, 5e-9, 8e-9};
  cfg.voltages = {0.35, 0.45};
  cfg.temperatures = {300.0, 350.0};
  return cfg; // trajectories = 0: analytic-only, fast
}

TEST(WerScenarioTest, RunShapeAndOrdering) {
  const WerScenario sc(analytic_config());
  const auto pts = sc.run();
  ASSERT_EQ(pts.size(), 3u * 2u * 2u);
  // Row-major, temperature fastest.
  EXPECT_EQ(pts[0].temperature, 300.0);
  EXPECT_EQ(pts[1].temperature, 350.0);
  EXPECT_EQ(pts[0].voltage, 0.35);
  EXPECT_EQ(pts[2].voltage, 0.45);
  EXPECT_EQ(pts[0].pulse_width, 3e-9);
  EXPECT_EQ(pts[4].pulse_width, 5e-9);
  for (const auto& p : pts) {
    EXPECT_GT(p.i_write, 0.0);
    EXPECT_LE(p.log10_wer_behavioural, 0.0);
    EXPECT_LT(p.log10_wer_analytic, -1.0); // deep-tail form: a real tail
    EXPECT_EQ(p.mc.n_trajectories, 0u);    // MC disabled
  }
}

TEST(WerScenarioTest, LongerPulsesAreMoreReliable) {
  const WerScenario sc(analytic_config());
  const auto pts = sc.run();
  // Fix voltage = 0.45 V, T = 300 K (indices 2, 6, 10), scan pulse width:
  // both closed forms must be monotone improving.
  const auto& p3 = pts[2];
  const auto& p5 = pts[6];
  const auto& p8 = pts[10];
  EXPECT_GT(p3.log10_wer_behavioural, p5.log10_wer_behavioural);
  EXPECT_GT(p5.log10_wer_behavioural, p8.log10_wer_behavioural);
  EXPECT_GT(p3.log10_wer_analytic, p5.log10_wer_analytic);
  EXPECT_GT(p5.log10_wer_analytic, p8.log10_wer_analytic);
}

TEST(WerScenarioTest, TableColumnsAndAgreementWithRun) {
  const WerScenario sc(analytic_config());
  const auto pts = sc.run();
  const auto tab = sc.table();
  ASSERT_EQ(tab.rows(), pts.size());
  for (const char* col :
       {"pulse_s", "v_write", "temp_k", "i_write_a", "log10_wer_behav",
        "log10_wer_analytic", "wer_mc", "rel_err_mc", "ess_mc",
        "ic_shift_mc"}) {
    EXPECT_NO_THROW((void)tab.col_index(col)) << col;
  }
  for (std::size_t r = 0; r < tab.rows(); ++r) {
    EXPECT_EQ(tab.number(r, "pulse_s"), pts[r].pulse_width);
    EXPECT_EQ(tab.number(r, "temp_k"), pts[r].temperature);
    EXPECT_EQ(tab.number(r, "log10_wer_analytic"),
              pts[r].log10_wer_analytic);
  }
  // Emission round-trips without throwing and carries every row.
  EXPECT_FALSE(tab.csv().empty());
  EXPECT_FALSE(tab.json().empty());
}

WerScenarioConfig mc_config() {
  // A small MC overlay over several pulse widths, so points differ in cost
  // and the estimator path (trajectories spread across the pool) runs.
  auto cfg = analytic_config();
  cfg.trajectories = 96; // 12 estimator chunks of 8
  cfg.pulse_widths = {3e-9, 5e-9, 8e-9};
  cfg.voltages = {0.45};
  cfg.temperatures = {300.0, 350.0};
  cfg.sigma_ic_rel = 0.2;
  return cfg;
}

void expect_same_rows(const std::vector<WerScenarioPoint>& a,
                      const std::vector<WerScenarioPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mc.n_trajectories, b[i].mc.n_trajectories) << i;
    EXPECT_EQ(a[i].mc.wer, b[i].mc.wer) << i;
    EXPECT_EQ(a[i].mc.variance, b[i].mc.variance) << i;
    EXPECT_EQ(a[i].mc.ess, b[i].mc.ess) << i;
    EXPECT_EQ(a[i].mc.n_failures, b[i].mc.n_failures) << i;
    EXPECT_EQ(a[i].log10_wer_analytic, b[i].log10_wer_analytic) << i;
  }
}

TEST(WerScenarioTest, DeterministicAcrossThreadCounts) {
  auto cfg = mc_config();
  cfg.threads = 1;
  const auto serial = WerScenario(cfg).run();
  ASSERT_EQ(serial.size(), 3u * 2u);
  for (const auto& p : serial) EXPECT_EQ(p.mc.n_trajectories, 96u);
  for (std::size_t threads : {2u, 4u, 0u}) {
    SCOPED_TRACE(threads);
    cfg.threads = threads;
    expect_same_rows(serial, WerScenario(cfg).run());
  }
}

TEST(WerScenarioTest, RunInsidePoolWorkerMatchesSerial) {
  // run() called from a global-pool chunk body: the estimator's pool is
  // the one already running this body, so it takes the same-pool inline
  // path instead of deadlocking, and the rows must not change.
  auto cfg = mc_config();
  cfg.threads = 1;
  const auto serial = WerScenario(cfg).run();
  cfg.threads = 0;
  std::vector<std::vector<WerScenarioPoint>> nested(2);
  mss::util::ThreadPool::global().parallel_for_chunks(
      nested.size(), 1, [&](std::size_t c, std::size_t, std::size_t) {
        nested[c] = WerScenario(cfg).run();
      });
  for (const auto& rows : nested) expect_same_rows(serial, rows);
}

// Golden MC overlay, pinned exactly (doubles as hexfloat literals): the
// production IS-MC path — auto threshold proposal from the analytic band
// with its defensive mixture — through the scenario's per-point streams.
// n = 203 leaves a partial chunk and a masked tail batch.
TEST(WerScenarioGolden, McOverlayPinned) {
  struct Pinned {
    double wer, variance, ess, ic_shift;
    std::size_t n_failures;
  };
  // Row-major: (3 ns, 300 K), (3 ns, 350 K), (5 ns, 300 K), (5 ns, 350 K).
  const Pinned golden[] = {
      {0x1.1ab904f269266p-1, 0x1.7a7a6b2345495p-7, 0x1.776a568c00bb7p+4,
       0x1.28380155f821ap+2, 180u},
      {0x1.63533ef0099a8p-1, 0x1.c099133686e48p-7, 0x1.e1c591f0bfdbp+4,
       0x1.33d90b7527c84p+2, 179u},
      {0x1.35469c66c8d83p-4, 0x1.5e312923ade04p-10, 0x1.0cd0200b1e708p+2,
       0x1.30edbd2232859p+2, 165u},
      {0x1.427a520f34d29p-4, 0x1.8c88d5bdfd0cap-10, 0x1.024f6b8d9da9bp+2,
       0x1.3de75dccfd5c1p+2, 160u},
  };
  auto cfg = analytic_config();
  cfg.pulse_widths = {3e-9, 5e-9};
  cfg.voltages = {0.45};
  cfg.temperatures = {300.0, 350.0};
  cfg.sigma_ic_rel = 0.2;
  cfg.trajectories = 203;
  for (std::size_t threads : {1u, 0u}) {
    SCOPED_TRACE(threads);
    cfg.threads = threads;
    const WerScenario sc(cfg);
    const auto pts = sc.run();
    // The proposal shift is read from the served column, which names no
    // estimator field.
    const auto tab = sc.table();
    ASSERT_EQ(pts.size(), std::size(golden));
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const auto& mc = pts[i].mc;
      EXPECT_EQ(mc.n_trajectories, 203u) << i;
      EXPECT_EQ(mc.wer, golden[i].wer) << i;
      EXPECT_EQ(mc.variance, golden[i].variance) << i;
      EXPECT_EQ(mc.ess, golden[i].ess) << i;
      EXPECT_EQ(tab.number(i, "ic_shift_mc"), golden[i].ic_shift) << i;
      EXPECT_EQ(mc.n_failures, golden[i].n_failures) << i;
    }
  }
}

TEST(WerScenarioTest, ConfigValidation) {
  auto cfg = analytic_config();
  cfg.pulse_widths.clear();
  EXPECT_THROW((void)WerScenario(cfg), std::invalid_argument);
  cfg = analytic_config();
  cfg.pulse_widths = {0.0};
  EXPECT_THROW((void)WerScenario(cfg), std::invalid_argument);
  cfg = analytic_config();
  cfg.temperatures.clear();
  EXPECT_THROW((void)WerScenario(cfg), std::invalid_argument);
}

TEST(RetentionEccTest, EccRelaxesTheRequiredDelta) {
  const RetentionDesigner d{MtjParams{}};
  const double years = 10.0;
  const double p_fail = 1e-4;
  const std::size_t bits = 1u << 20;
  const double d0 = d.delta_for_retention(years, p_fail, bits, 0);
  const double d1 = d.delta_for_retention(years, p_fail, bits, 1);
  const double d4 = d.delta_for_retention(years, p_fail, bits, 4);
  // Each extra correctable error buys ln-units of stability budget.
  EXPECT_GT(d0, d1);
  EXPECT_GT(d1, d4);
  EXPECT_GT(d0 - d4, 2.0);
  // And the relaxed Delta maps to a smaller pillar => cheaper writes.
  const auto des0 = d.design(years, p_fail, bits, 0);
  const auto des4 = d.design(years, p_fail, bits, 4);
  EXPECT_LT(des4.diameter, des0.diameter);
  EXPECT_LT(des4.write_current, des0.write_current);
  EXPECT_EQ(des4.correctable, 4u);
}

TEST(RetentionEccTest, EccBudgetMatchesThePoissonTail) {
  // The admissible per-array flip budget lambda solved by the designer
  // must satisfy the Poisson tail identity P(X > c) = gamma_p(c+1, lambda)
  // = p_fail. Recover lambda from the returned Delta and check.
  const RetentionDesigner d{MtjParams{}};
  const double years = 1.0;
  const double p_fail = 1e-4;
  const std::size_t bits = 1u << 20;
  const unsigned c = 2;
  const double delta = d.delta_for_retention(years, p_fail, bits, c);
  const double t = years * 365.25 * 24 * 3600;
  const double tau0 = MtjParams{}.tau0;
  // Per-bit flip probability at that Delta over the retention window.
  const double p_bit = -std::expm1(-(t / tau0) * std::exp(-delta));
  const double lambda = static_cast<double>(bits) * p_bit;
  EXPECT_NEAR(mss::math::gamma_p(c + 1.0, lambda), p_fail, p_fail * 1e-3);
}

}  // namespace
