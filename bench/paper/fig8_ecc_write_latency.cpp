// Fig. 8 reproduction: "Effect of ECCs on write latency for WER of 1e-18".
//
// Instead of widening the write pulse until the *raw* per-bit error rate
// meets the target, the word is protected with a t-error-correcting BCH
// code: the pulse only needs to reach the (much higher) per-bit error rate
// the code can clean up. The paper's observation: "compared to the case
// with no ECC (0-bit correction), there is a drastic improvement in latency
// by using an ECC with one-bit error correction. However, the improvement
// in latency for higher bit error correction is comparatively less."
//
// One node x t_correct space through sweep::Runner, one ResultTable out.
#include <string>

#include "paper.hpp"
#include "sweep/experiment.hpp"
#include "util/units.hpp"
#include "vaet/ecc.hpp"
#include "vaet/estimator.hpp"

namespace mss::paper {

Figure fig8_ecc_write_latency() {
  using util::kNs;

  constexpr double kWerTarget = 1e-18;
  constexpr std::size_t kWordBits = 256;

  const auto space =
      sweep::ParamSpace()
          .cross(sweep::Axis::list("node", {std::string("45nm"), "65nm"}))
          .cross(sweep::Axis::list("t_correct",
                                   std::vector<std::int64_t>{0, 1, 2, 3, 4}));

  const auto exp = sweep::make_experiment(
      "fig8-ecc", [&](const sweep::Point& p, util::Rng&) -> double {
        const auto node = core::node_from_string(p.str("node"));
        const vaet::VaetStt vaet(core::Pdk::for_node(node),
                                 nvsim::ArrayOrg{1024, 1024, kWordBits});
        return vaet.write_latency_with_ecc(
            kWerTarget, static_cast<unsigned>(p.integer("t_correct")));
      });

  const auto latencies = sweep::Runner().run(space, exp);

  // Assemble the table with the per-node saving against t = 0 (the first
  // row of each node's block — scenario-relative columns need the whole
  // result vector, not one point).
  sweep::ResultTable table({"node", "t_correct", "check_bits",
                            "write_latency_ns", "saving_vs_no_ecc_pct"});
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    const auto p = space.at(i);
    const auto t = static_cast<unsigned>(p.integer("t_correct"));
    vaet::EccScheme scheme;
    scheme.data_bits = kWordBits;
    scheme.t_correct = t;
    const double t0 = latencies[i - t]; // t is the fast axis: t=0 leads
    table.add_row({p.str("node"), std::int64_t(t),
                   std::int64_t(scheme.check_bits()), latencies[i] / kNs,
                   100.0 * (1.0 - latencies[i] / t0)});
  }

  return {{{"", "", std::move(table)}},
          "Shape check (paper): drastic improvement from 0 -> 1 corrected "
          "bit, comparatively less for higher correction."};
}

} // namespace mss::paper
