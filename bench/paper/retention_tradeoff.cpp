// Section I claim, quantified: "MTJs can have adjustable retention by
// playing with the diameter of the stack thus allowing to minimize the
// switching current according to the specified retention."
//
// This driver sweeps retention targets from scratchpad-grade (hours) to
// storage-grade (10 years) through the parallel RetentionDesigner sweep
// and reports the designed pillar diameter, thermal stability, critical
// current, switching time and write energy — the MSS retention/write-cost
// trade-off curve.
#include <string>
#include <vector>

#include "core/pdk.hpp"
#include "core/retention.hpp"
#include "paper.hpp"
#include "util/units.hpp"

namespace mss::paper {

Figure retention_tradeoff() {
  const auto pdk = core::Pdk::mss45();
  const core::RetentionDesigner designer(pdk.mtj, pdk.write_overdrive);

  const std::vector<std::string> labels = {"1 hour", "1 day", "1 month",
                                           "1 year", "10 years"};
  const std::vector<double> years = {1.0 / (365.25 * 24.0), 1.0 / 365.25,
                                     1.0 / 12.0, 1.0, 10.0};
  const auto designs = designer.sweep(years);

  sweep::ResultTable table({"retention", "years", "delta", "diameter_nm",
                            "ic0_uA", "i_write_uA", "t_switch_ns",
                            "e_write_fJ"});
  for (std::size_t i = 0; i < designs.size(); ++i) {
    const auto& d = designs[i];
    table.add_row({labels[i], d.retention_years, d.required_delta,
                   d.diameter / util::kNm, d.ic0 / util::kUa,
                   d.write_current / util::kUa, d.switching_time / util::kNs,
                   d.write_energy / util::kFj});
  }

  const double cut = 100.0 * (1.0 - designs.front().write_current /
                                        designs.back().write_current);
  return {{{"", "", std::move(table)},
           {"summary", "relaxing retention from 10 years to 1 hour",
            key_values({{"write_current_cut_pct", cut}})}},
          "The write-current cut on the same baseline stack is the knob that "
          "lets one MSS recipe serve caches and storage alike."};
}

} // namespace mss::paper
