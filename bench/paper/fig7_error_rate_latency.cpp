// Fig. 7 reproduction: "Overall read and write latencies for various error
// rates" — the reliability-constrained timing margins of VAET-STT.
//
// The paper sweeps the target Read Error Rate (RER) and Write Error Rate
// (WER) from 1e-5 down to 1e-15 and shows the overall latency the memory
// must budget: the lower the target error rate, the higher the timing
// margin. The sweep is one declarative node x error-rate space evaluated
// through sweep::Runner.
#include <string>

#include "paper.hpp"
#include "sweep/experiment.hpp"
#include "util/units.hpp"
#include "vaet/estimator.hpp"

namespace mss::paper {

namespace {

struct Margins {
  double write_latency = 0.0;
  double read_latency = 0.0;
};

} // namespace

Figure fig7_error_rate_latency() {
  using util::kNs;

  const auto space =
      sweep::ParamSpace()
          .cross(sweep::Axis::list("node", {std::string("45nm"), "65nm"}))
          .cross(sweep::Axis::log("error_rate", 1e-5, 1e-15, 6));

  const auto exp = sweep::make_experiment(
      "fig7-margins", [](const sweep::Point& p, util::Rng&) -> Margins {
        const auto node = core::node_from_string(p.str("node"));
        const vaet::VaetStt vaet(core::Pdk::for_node(node),
                                 nvsim::ArrayOrg{1024, 1024, 256});
        const double target = p.number("error_rate");
        return {vaet.write_latency_for_wer(target),
                vaet.read_latency_for_rer(target)};
      });

  auto table = sweep::Runner().table(
      space, exp,
      {"node", "error_rate", "write_latency_ns", "read_latency_ns"},
      [&](const sweep::Point& p, const Margins& m) {
        return std::vector<sweep::Value>{p.str("node"), p.number("error_rate"),
                                         m.write_latency / kNs,
                                         m.read_latency / kNs};
      });

  return {{{"", "", std::move(table)}},
          "Shape check (paper): \"for lower values of target error rates, "
          "high timing margins are required\" — both series increase "
          "monotonically as the target tightens."};
}

} // namespace mss::paper
