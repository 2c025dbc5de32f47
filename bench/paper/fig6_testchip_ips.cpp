// Fig. 6 reproduction: "Layout of the first demonstrator, embedding test
// structures and circuits from different partners".
//
// The figure itself is a chip photo; its *content* is the inventory of
// MSS-based IPs integrated on the first test chip. This driver
// instantiates and exercises every IP the paper names — bit cells, sense
// amplifiers, write circuits, MRAM-based flip-flops, and the MSS-based
// programmable current source — end to end through the SPICE engine, and
// reports each IP's status and key figures, one figure per row.
#include <string>

#include "cells/bitcell.hpp"
#include "cells/current_source.hpp"
#include "cells/nvff.hpp"
#include "cells/sense_amp.hpp"
#include "cells/write_driver.hpp"
#include "core/mss_stack.hpp"
#include "paper.hpp"
#include "util/units.hpp"

namespace mss::paper {

Figure fig6_testchip_ips() {
  const auto pdk = core::Pdk::mss45();
  sweep::ResultTable t({"ip_block", "status", "figure", "value"});
  const auto add = [&t](const char* block, bool ok, const std::string& figure,
                        double value) {
    t.add_row({std::string(block), std::string(ok ? "ok" : "FAIL"), figure,
               value});
  };

  // The three MSS flavours are device instances: their banners go to the
  // note.
  std::string note = "MSS devices on the chip:";
  for (const auto& dev : {core::MssStack::make_memory(pdk.mtj),
                          core::MssStack::make_oscillator(pdk.mtj),
                          core::MssStack::make_sensor(pdk.mtj)}) {
    note += "\n  " + dev.describe();
  }

  // 1T-1MTJ bit cell.
  {
    const cells::Bitcell cell(pdk);
    const auto wr =
        cell.characterize_write(core::WriteDirection::ToAntiparallel, 20e-9);
    const auto rd = cell.characterize_read(5e-9);
    add("1T-1MTJ bit cell", wr.switched, "t_sw_ns", wr.t_switch / util::kNs);
    add("1T-1MTJ bit cell", wr.switched, "read_margin_uA",
        rd.delta_i / util::kUa);
  }

  // Sense amplifier.
  {
    const cells::SenseAmp sa(pdk);
    const auto r = sa.resolve(0.62, 0.55);
    const bool ok = r.resolved && r.decision_correct;
    add("latch sense amplifier", ok, "t_resolve_ns", r.t_resolve / util::kNs);
    add("latch sense amplifier", ok, "energy_fJ", r.energy / util::kFj);
  }

  // Write driver.
  {
    const cells::WriteDriver wd(pdk);
    const auto r = wd.characterize();
    add("bit-line write driver", r.t_rise > 0.0, "t_rise_ns",
        r.t_rise / util::kNs);
    add("bit-line write driver", r.t_rise > 0.0, "i_drive_uA",
        r.i_drive / util::kUa);
  }

  // Non-volatile flip-flop (both data values).
  {
    const cells::Nvff ff(pdk);
    const auto r1 = ff.characterize(true);
    const auto r0 = ff.characterize(false);
    const bool ok = r1.store_ok && r1.restore_ok && r0.store_ok && r0.restore_ok;
    add("non-volatile flip-flop", ok, "e_store_pJ", r1.e_store / util::kPj);
    add("non-volatile flip-flop", ok, "t_restore_ns",
        r1.t_restore / util::kNs);
  }

  // MSS-based programmable current source (the sensor-interface analog IP).
  {
    const cells::CurrentSource cs(pdk);
    const auto r = cs.characterize();
    for (std::size_t k = 0; k < r.levels.size(); ++k) {
      add("programmable current source", r.tuning_range > 0.1,
          "level" + std::to_string(k) + "_uA", r.levels[k] / util::kUa);
    }
  }

  return {{{"", "", std::move(t)}},
          note + "\nAll IPs the paper lists for the first demonstrator are "
                 "implemented and exercised at transistor level."};
}

} // namespace mss::paper
