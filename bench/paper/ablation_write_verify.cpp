// Ablation: the three write-reliability knobs side by side — pulse-width
// margining (Fig. 7), ECC (Fig. 8) and write-verify-retry — at several
// target WERs. The point the analysis makes: retries beat margining at
// moderate targets (they only pay the long latency when a write actually
// failed), but they saturate at the process-weak-bit floor, where ECC is
// the only knob that still works.
#include <stdexcept>
#include <string>

#include "paper.hpp"
#include "util/units.hpp"
#include "vaet/estimator.hpp"
#include "vaet/write_verify.hpp"

namespace mss::paper {

Figure ablation_write_verify() {
  using util::kNs;

  const auto pdk = core::Pdk::mss45();
  vaet::VaetOptions opt;
  opt.mc_samples = 10;
  const vaet::VaetStt vaet(pdk, nvsim::ArrayOrg{1024, 1024, 256}, opt);

  sweep::ResultTable t({"target_wer", "raw_margin_ns", "ecc_t1_ns",
                        "verify_k3_expected_ns", "verify_k3_worst_ns",
                        "verify_k3_energy_factor"});
  for (double target : {1e-6, 1e-9, 1e-12, 1e-15, 1e-18}) {
    const double raw = vaet.write_latency_for_wer(target);
    const double ecc = vaet.write_latency_with_ecc(target, 1);
    // Below the weak-bit floor retries cannot reach the target.
    sweep::Value v_exp = std::string("floor");
    sweep::Value v_worst = std::string("-");
    sweep::Value v_factor = std::string("-");
    try {
      const auto wv = vaet::design_write_verify(vaet, target, 3);
      v_exp = wv.expected_latency / kNs;
      v_worst = wv.worst_latency / kNs;
      v_factor = wv.expected_energy_factor;
    } catch (const std::invalid_argument&) {
    }
    t.add_row({target, raw / kNs, ecc / kNs, v_exp, v_worst, v_factor});
  }
  return {{{"", "", std::move(t)}},
          "Reading: verify wins on *expected* latency wherever it is feasible "
          "(failures are rare, so retries almost never fire); its worst case "
          "and its weak-bit floor are the price. ECC keeps working into the "
          "deep-tail regime, which is exactly the paper's Fig. 8 argument."};
}

} // namespace mss::paper
