// Fig. 9 reproduction: "Read disturb probabilities for different read
// periods", plus the conflicting-requirement view the paper discusses:
// "Even though a higher read latency leads to a lower RER as per Fig. 7,
// it will lead to increased read disturb probability as shown in Fig. 9.
// Hence the read period should be fixed considering the conflicting
// requirements for RER and read disturb."
#include <cmath>
#include <string>

#include "paper.hpp"
#include "util/units.hpp"
#include "vaet/estimator.hpp"

namespace mss::paper {

Figure fig9_read_disturb() {
  sweep::ResultTable table({"node", "i_read_over_ic0", "read_period_ns",
                            "disturb_prob", "rer_bit"});
  for (const auto node : {core::TechNode::N45, core::TechNode::N65}) {
    const vaet::VaetStt vaet(core::Pdk::for_node(node),
                             nvsim::ArrayOrg{1024, 1024, 256});
    const double ratio = vaet.array().cell().read_disturb_ratio;
    for (double t_ns : {2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0}) {
      const double t = t_ns * util::kNs;
      table.add_row({std::string(to_string(node)), ratio, t_ns,
                     vaet.read_disturb_probability(t),
                     std::exp(vaet.per_bit_log_rer(t))});
    }
  }
  return {{{"", "", std::move(table)}},
          "Shape check (paper): disturb probability increases with the read "
          "period while the RER decreases — the conflicting requirements "
          "that fix the read period."};
}

} // namespace mss::paper
