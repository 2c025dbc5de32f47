// Non-volatile logic: normally-off computing with MSS flip-flops.
//
// The paper's Section II analyses "single bit cells and flip-flops based
// on MRAM" at circuit level. This example uses the SPICE engine to study a
// power-gated pipeline stage protected by NVFFs:
//   * store/restore energy and delay of the flip-flop,
//   * the break-even sleep time against leaky retention flops,
//   * a sweep over latch sizing showing the store-energy / restore-speed
//     trade-off.
//
//   $ ./nonvolatile_logic
#include <cstdio>

#include "cells/nvff.hpp"
#include "core/pdk.hpp"
#include "sweep/result_table.hpp"
#include "util/units.hpp"

int main() {
  using namespace mss;

  const auto pdk = core::Pdk::mss45();
  std::printf("=== Normally-off computing with MSS non-volatile flip-flops "
              "===\n\n");

  // Baseline characterisation, both data polarities.
  const cells::Nvff ff(pdk);
  const auto r1 = ff.characterize(true);
  const auto r0 = ff.characterize(false);
  std::printf("NVFF check: store/restore bit=1 %s/%s, bit=0 %s/%s\n",
              r1.store_ok ? "ok" : "FAIL", r1.restore_ok ? "ok" : "FAIL",
              r0.store_ok ? "ok" : "FAIL", r0.restore_ok ? "ok" : "FAIL");
  std::printf("store %.2f pJ, restore %.2f pJ in %.2f ns\n\n",
              r1.e_store / util::kPj, r1.e_restore / util::kPj,
              r1.t_restore / util::kNs);

  // Break-even sleep time vs a retention flop leaking through sleep.
  // A retention flop at 45nm leaks ~2 nW in the balloon latch.
  const double p_retention_leak = 2e-9; // W
  const double e_cycle = r1.e_store + r1.e_restore;
  const double t_breakeven = e_cycle / p_retention_leak;
  std::printf("break-even sleep: %.2f pJ per NVFF power cycle vs %.1f nW "
              "retention leakage -> worth power-gating for sleeps > %.1f ms\n\n",
              e_cycle / util::kPj, p_retention_leak / 1e-9,
              t_breakeven / 1e-3);

  // Sizing sweep: bigger latch writes the shadow MTJs faster (more store
  // current) but costs area and restore energy.
  std::printf("latch sizing sweep (store phase fixed at 10 ns):\n");
  sweep::ResultTable t({"latch_w_over_wmin", "store_ok", "e_store_pJ",
                        "t_restore_ns", "e_restore_pJ"});
  for (double w : {6.0, 10.0, 14.0, 18.0}) {
    cells::NvffOptions opt;
    opt.latch_width_factor = w;
    const cells::Nvff sized(pdk, opt);
    const auto r = sized.characterize(true);
    t.add_row({w, std::string(r.store_ok && r.restore_ok ? "yes" : "NO"),
               r.e_store / util::kPj, r.t_restore / util::kNs,
               r.e_restore / util::kPj});
  }
  std::printf("%s\n", t.str(3).c_str());
  std::printf("The MSS shadow pair makes any pipeline stage instantly "
              "power-gateable — the \"normally-off\" IoT operating mode the "
              "paper targets.\n");
  return 0;
}
