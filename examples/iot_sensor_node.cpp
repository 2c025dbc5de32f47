// IoT sensor node: the paper's motivating application.
//
// An autonomous battery-operated node built entirely on the MSS baseline
// technology:
//   * an MSS *sensor* measures an out-of-plane magnetic field,
//   * an MSS-based *programmable current source* biases the sensor,
//   * samples are logged into an MSS *memory* array (retention relaxed to
//     one week — the diameter knob — to cut write energy),
//   * an MSS *oscillator* provides the RF carrier to radio the data out,
//   * NVFF state retention lets the MCU power-gate completely between
//     samples (normally-off computing).
//
// The example sizes every block, runs a day-long duty-cycle simulation
// (analytically) and prints the energy budget per sample and per day.
//
//   $ ./iot_sensor_node
#include <cmath>
#include <cstdio>

#include "cells/current_source.hpp"
#include "cells/nvff.hpp"
#include "core/mss_stack.hpp"
#include "core/pdk.hpp"
#include "core/retention.hpp"
#include "sweep/result_table.hpp"
#include "util/units.hpp"

int main() {
  using namespace mss;

  const auto pdk = core::Pdk::mss45();
  std::printf("=== MSS-based IoT sensor node (all functions, one stack) "
              "===\n\n");

  // --- sensing chain --------------------------------------------------------
  const auto sensor_dev = core::MssStack::make_sensor(pdk.mtj);
  const auto& sensor = sensor_dev.sensor();
  const cells::CurrentSource bias_source(pdk);
  const auto bias = bias_source.characterize();
  const double i_bias = bias.levels[1]; // mid programming level
  const double h_signal = 0.2 * sensor.characteristics().linear_range_am;
  const double v_out = sensor.output_voltage(h_signal, i_bias);
  std::printf("sensor: %s\n", sensor_dev.describe().c_str());
  std::printf("bias:   %.1f uA from the programmable source "
              "(levels %.1f..%.1f uA)\n",
              i_bias / util::kUa, bias.levels.back() / util::kUa,
              bias.levels.front() / util::kUa);
  std::printf("signal: %.2f kOe -> %.1f mV at the ADC input\n\n",
              h_signal / util::kKiloOersted, v_out / 1e-3);

  // --- log memory: retention relaxed to one week ---------------------------
  const core::RetentionDesigner designer(pdk.mtj, pdk.write_overdrive);
  const auto log_cell = designer.design(7.0 / 365.25);
  const auto archive_cell = designer.design(10.0);
  std::printf("log memory cell  (1 week):  d=%.1f nm, I_w %.1f uA, "
              "E_w %.0f fJ/bit\n",
              log_cell.diameter / util::kNm, log_cell.write_current / util::kUa,
              log_cell.write_energy / util::kFj);
  std::printf("archive cell     (10 years): d=%.1f nm, I_w %.1f uA, "
              "E_w %.0f fJ/bit  (%.0f%% more)\n\n",
              archive_cell.diameter / util::kNm,
              archive_cell.write_current / util::kUa,
              archive_cell.write_energy / util::kFj,
              100.0 * (archive_cell.write_energy / log_cell.write_energy - 1.0));

  // --- radio ---------------------------------------------------------------
  const auto osc = core::MssStack::make_oscillator(pdk.mtj);
  const double i_osc = 2.5 * osc.oscillator().threshold_current();
  // The STO is only the carrier; the PA dominates the radio budget.
  const double p_radio = i_osc * 0.4 + 5e-3; // STO branch + PA [W]
  std::printf("radio: STO carrier %.2f GHz at %.1f uA DC\n\n",
              osc.oscillator().frequency(i_osc) / util::kGhz,
              i_osc / util::kUa);

  // --- normally-off MCU state ----------------------------------------------
  const cells::Nvff nvff(pdk);
  const auto ff = nvff.characterize(true);
  std::printf("state retention: NVFF store %.2f pJ / restore %.2f pJ "
              "(%d-bit MCU state: %.1f pJ per power cycle)\n\n",
              ff.e_store / util::kPj, ff.e_restore / util::kPj, 64,
              64.0 * (ff.e_store + ff.e_restore) / util::kPj);

  // --- duty-cycle energy budget ---------------------------------------------
  const double sample_period = 10.0;       // s
  const double t_active = 2e-3;            // s awake per sample
  const double p_active_cmos = 3e-3;       // W, MCU active
  const double samples_per_word = 4.0;     // 16-bit samples into 64-bit words
  const double e_sample =
      p_active_cmos * t_active                     // MCU awake window
      + i_bias * 0.4 * 1e-3                        // sensor biased for 1 ms
      + 64.0 * log_cell.write_energy / samples_per_word // log write share
      + p_radio * 5e-3 / 60.0                      // radio share (5 ms/min)
      + 64.0 * (ff.e_store + ff.e_restore);        // power gating
  const double e_day = e_sample * (86400.0 / sample_period);

  sweep::ResultTable t({"component", "energy_per_sample_nJ"});
  t.add_row(
      {std::string("MCU active window"), p_active_cmos * t_active / 1e-9});
  t.add_row({std::string("sensor bias"), i_bias * 0.4 * 1e-3 / 1e-9});
  t.add_row({std::string("MRAM log write"),
             64.0 * log_cell.write_energy / samples_per_word / 1e-9});
  t.add_row({std::string("radio share"), p_radio * 5e-3 / 60.0 / 1e-9});
  t.add_row({std::string("NVFF power gating"),
             64.0 * (ff.e_store + ff.e_restore) / 1e-9});
  std::printf("%s\n", t.str(4).c_str());

  const double days = 3.0 * 3600.0 / e_day;
  if (days > 3650.0) {
    std::printf("per-sample %.1f uJ -> %.2f J/day; a 3 Wh coin cell is no "
                "longer the limit (>10 years): the battery's own shelf life "
                "bounds the node, thanks to zero standby leakage in the MSS "
                "blocks\n",
                e_sample / 1e-6, e_day);
  } else {
    std::printf("per-sample %.1f uJ -> %.2f J/day; a 3 Wh coin cell lasts "
                "%.0f days with zero standby leakage in the MSS blocks\n",
                e_sample / 1e-6, e_day, days);
  }
  std::printf("(the non-volatility is the point: between samples the node "
              "draws *no* state-retention power)\n");
  return 0;
}
