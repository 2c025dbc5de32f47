// Ablation: MSS device behaviour across the IoT temperature range.
//
// The paper targets battery-operated field devices; this driver quantifies
// how the memory-mode MSS corner degrades (or improves) from -40 C to
// +125 C: thermal stability, retention, critical current, TMR and read
// margin — the corner table a datasheet would carry.
#include <vector>

#include "core/pdk.hpp"
#include "core/thermal_corner.hpp"
#include "paper.hpp"
#include "util/units.hpp"

namespace mss::paper {

Figure ablation_temperature() {
  const auto pdk = core::Pdk::mss45();
  const std::vector<double> temps = {233.15, 273.15, 300.0, 333.15, 358.15,
                                     398.15};
  sweep::ResultTable t({"t_C", "delta", "retention_years", "ic0_uA",
                        "tmr_pct", "read_margin_pct"});
  for (const auto& c : core::temperature_sweep(pdk.mtj, temps, pdk.v_read)) {
    t.add_row({c.temperature_k - 273.15, c.delta, c.retention_years,
               c.ic0 / util::kUa, 100.0 * c.tmr, 100.0 * c.read_margin_rel});
  }
  return {{{"", "", std::move(t)}},
          "Shape checks: Delta, retention, TMR and read margin all fall with "
          "temperature; Ic0 falls too (hot writes are cheaper). The retention "
          "spec must therefore be set at the hot corner — which the "
          "RetentionDesigner diameter knob absorbs without touching the "
          "stack recipe."};
}

} // namespace mss::paper
