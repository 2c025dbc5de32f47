#include "spice/mtj_element.hpp"

#include <cmath>

namespace mss::spice {

using core::MtjState;
using core::WriteDirection;

MtjDevice::MtjDevice(std::string name, int free_node, int ref_node,
                     core::MtjParams params, core::MtjState initial)
    : Element(std::move(name)), a_(free_node), b_(ref_node),
      model_(params), initial_(initial), state_(initial) {}

void MtjDevice::reset() {
  state_ = initial_;
  phase_ = 0.0;
  flip_times_.clear();
  current_trace_.clear();
}

double MtjDevice::current(double v_ab) const {
  return v_ab / model_.resistance(state_, std::abs(v_ab));
}

void MtjDevice::stamp(MnaSystem& st, const Solution& x,
                      const StampContext&) const {
  const double v0 = x.v(a_) - x.v(b_);
  // Numeric linearisation around the iterate (the AP branch resistance
  // depends on |v| through the TMR roll-off).
  const double dv = 1e-3;
  const double i0 = current(v0);
  const double g = (current(v0 + dv) - current(v0 - dv)) / (2.0 * dv);
  const double ieq = i0 - g * v0;
  st.add_all(slots_, {{{a_, a_}, {b_, b_}, {a_, b_}, {b_, a_}}},
             {g, g, -g, -g});
  st.add_rhs(a_, -ieq);
  st.add_rhs(b_, ieq);
}

void MtjDevice::commit(const Solution& x, const StampContext& ctx) {
  const double v = x.v(a_) - x.v(b_);
  const double i = current(v);
  if (ctx.kind == AnalysisKind::Transient) {
    current_trace_.emplace_back(ctx.t, i);
  }
  if (ctx.kind != AnalysisKind::Transient || ctx.dt <= 0.0) return;

  // Positive current (free -> reference terminal direction) writes P;
  // negative writes AP.
  const bool wants_parallel = i > 0.0;
  const MtjState target =
      wants_parallel ? MtjState::Parallel : MtjState::Antiparallel;
  if (target == state_) {
    phase_ = 0.0; // current reinforces the present state
    return;
  }
  const WriteDirection dir = wants_parallel ? WriteDirection::ToParallel
                                            : WriteDirection::ToAntiparallel;
  const double ic = model_.critical_current(dir);
  const double mag = std::abs(i);
  if (mag <= 0.5 * ic) {
    phase_ = 0.0; // incubation lost
    return;
  }
  if (mag <= ic) return; // sub-critical: hold phase, no deterministic flip
  const double t_sw = model_.switching_time(dir, mag);
  phase_ += ctx.dt / t_sw;
  if (phase_ >= 1.0) {
    state_ = target;
    phase_ = 0.0;
    flip_times_.push_back(ctx.t);
  }
}

} // namespace mss::spice
