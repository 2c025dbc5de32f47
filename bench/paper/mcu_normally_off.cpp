// Extension study: normally-off MCU (SecretBlaze-like, paper ref. [2])
// with MiBench-like kernels — the embedded end of the paper's IoT claim
// that MSS memory "decreases their power consumption (by reducing the
// power consumptions of memory and sensor interfaces blocks by 5x or
// 10x)".
//
// For each kernel: an always-on SRAM node against a normally-off MSS-MRAM
// node at a 1 s activation period, and the crossover period beyond which
// non-volatility wins.
#include <string>

#include "core/pdk.hpp"
#include "magpie/mcu.hpp"
#include "paper.hpp"

namespace mss::paper {

Figure mcu_normally_off() {
  const auto pdk = core::Pdk::mss45();
  const auto sram = magpie::make_mcu(magpie::MemTech::Sram, pdk);
  const auto mram = magpie::make_mcu(magpie::MemTech::SttMram, pdk);

  sweep::ResultTable t({"kernel", "active_sram_us", "active_mram_us",
                        "p_1s_sram_uW", "p_1s_mram_uW", "crossover_s"});
  double ratio_sum = 0.0;
  int n = 0;
  for (const auto& k : magpie::mibench_kernels()) {
    const auto run_s = magpie::run_mcu(sram, k);
    const auto run_m = magpie::run_mcu(mram, k);
    const double p_s = magpie::average_power(sram, run_s, 1.0);
    const double p_m = magpie::average_power(mram, run_m, 1.0);
    const double cross =
        magpie::normally_off_crossover(sram, mram, run_s, run_m);
    sweep::Value crossover = cross;
    if (cross == -1.0) crossover = std::string("MRAM always");
    if (cross == -2.0) crossover = std::string("SRAM always");
    t.add_row({k.name, run_s.active_time / 1e-6, run_m.active_time / 1e-6,
               p_s / 1e-6, p_m / 1e-6, crossover});
    ratio_sum += p_s / p_m;
    ++n;
  }

  auto summary = key_values({{"sram_mem_leak_mW", sram.mem_leak / 1e-3},
                             {"sram_sleep_uW", sram.p_sleep / 1e-6},
                             {"mram_mem_leak_mW", mram.mem_leak / 1e-3},
                             {"mram_sleep_uW", mram.p_sleep / 1e-6},
                             {"mean_power_reduction_x", ratio_sum / n}});
  return {{{"", "power at a 1 s activation period", std::move(t)},
           {"summary", "platforms: " + sram.name + " vs " + mram.name,
            std::move(summary)}},
          "The paper's claimed 5-10x memory-block power reduction regime is "
          "reached once the node spends most of its life asleep."};
}

} // namespace mss::paper
