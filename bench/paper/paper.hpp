// The paper-figure drivers: one function per figure or table of the
// paper (plus the extension studies and ablations), each returning its
// ResultTables. A driver prints nothing and writes no file; bench_paper
// (bench/paper.cpp) is the one emitter, and tests/paper_golden_test.cpp
// pins every table against tests/golden/paper/*.csv.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "sweep/result_table.hpp"

namespace mss::paper {

/// One table of a figure. `name` suffixes its CSV file (`<id>_<name>.csv`;
/// empty = `<id>.csv`); `title` is console-only.
struct Table {
  std::string name;
  std::string title;
  sweep::ResultTable table;
};

/// A driver's output. Only `tables` are pinned; `note` (device banners,
/// the paper's shape checks, wall-clock times) is console-only.
struct Figure {
  std::vector<Table> tables;
  std::string note;
};

/// A {quantity, value} table for a figure's scalar key numbers.
inline sweep::ResultTable key_values(
    const std::vector<std::pair<std::string, double>>& items) {
  sweep::ResultTable t({"quantity", "value"});
  for (const auto& [quantity, value] : items) t.add_row({quantity, value});
  return t;
}

Figure table1_latency_energy();
Figure fig2_5_device_pdk();
Figure fig6_testchip_ips();
Figure fig7_error_rate_latency();
Figure fig8_ecc_write_latency();
Figure fig9_read_disturb();
Figure fig10_magpie_flow();
Figure fig11_energy_breakdown();
Figure fig12_edp();
Figure retention_tradeoff();
Figure mcu_normally_off();
Figure ablation_mc_vs_analytic();
Figure ablation_model_strategies();
Figure ablation_temperature();
Figure ablation_write_verify();

struct Driver {
  const char* id;    ///< CSV stem and bench_paper argument
  const char* title; ///< console heading
  Figure (*run)();
};

/// Every driver, in paper order.
inline constexpr Driver kDrivers[] = {
    {"table1_latency_energy",
     "Table 1: overall latency & energy, 1024x1024 array",
     table1_latency_energy},
    {"fig2_5_device_pdk", "Section II device/PDK characterisation (MSS45)",
     fig2_5_device_pdk},
    {"fig6_testchip_ips",
     "Fig. 6: demonstrator test-chip IP inventory (MSS45)",
     fig6_testchip_ips},
    {"fig7_error_rate_latency",
     "Fig. 7: overall read & write latency vs target error rate",
     fig7_error_rate_latency},
    {"fig8_ecc_write_latency",
     "Fig. 8: write latency vs ECC correction capability (WER target 1e-18)",
     fig8_ecc_write_latency},
    {"fig9_read_disturb", "Fig. 9: read disturb probability vs read period",
     fig9_read_disturb},
    {"fig10_magpie_flow", "Fig. 10: the MAGPIE cross-layer flow, executed",
     fig10_magpie_flow},
    {"fig11_energy_breakdown",
     "Fig. 11: energy breakdown by component, bodytrack on big.LITTLE",
     fig11_energy_breakdown},
    {"fig12_edp", "Fig. 12: exec time / energy / EDP vs Full-SRAM (45 nm)",
     fig12_edp},
    {"retention_tradeoff",
     "MSS retention vs write-cost trade-off (adjustable diameter)",
     retention_tradeoff},
    {"mcu_normally_off", "Normally-off MCU study (MiBench-like kernels)",
     mcu_normally_off},
    {"ablation_mc_vs_analytic",
     "Ablation: Monte-Carlo vs analytic (Gauss-Hermite) variation "
     "propagation",
     ablation_mc_vs_analytic},
    {"ablation_model_strategies",
     "Ablation: behavioural (closed-form) vs physical (LLGS) strategies",
     ablation_model_strategies},
    {"ablation_temperature", "MSS memory corner vs temperature (IoT range)",
     ablation_temperature},
    {"ablation_write_verify",
     "Ablation: margining vs ECC vs write-verify (45 nm)",
     ablation_write_verify},
};

} // namespace mss::paper
