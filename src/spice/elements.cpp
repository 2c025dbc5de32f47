#include "spice/elements.hpp"

#include <stdexcept>

namespace mss::spice {

namespace {

/// The (a,a),(b,b),(a,b),(b,a) position quad every two-terminal
/// conductance stamps.
[[nodiscard]] constexpr std::array<std::pair<int, int>, 4> quad_pos(int a,
                                                                    int b) {
  return {{{a, a}, {b, b}, {a, b}, {b, a}}};
}

} // namespace

Resistor::Resistor(std::string name, int a, int b, double ohms)
    : Element(std::move(name)), a_(a), b_(b), r_(ohms) {
  if (r_ <= 0.0) throw std::invalid_argument("Resistor: non-positive value");
}

void Resistor::stamp(MnaSystem& st, const Solution&, const StampContext&) const {
  const double g = 1.0 / r_;
  st.add_all(slots_, quad_pos(a_, b_), {g, g, -g, -g});
}

Capacitor::Capacitor(std::string name, int a, int b, double farads,
                     double v_initial)
    : Element(std::move(name)), a_(a), b_(b), c_(farads), v0_(v_initial),
      v_prev_(v_initial) {
  if (c_ <= 0.0) throw std::invalid_argument("Capacitor: non-positive value");
}

void Capacitor::reset() {
  v_prev_ = v0_;
  i_prev_ = 0.0;
}

void Capacitor::stamp(MnaSystem& st, const Solution&,
                      const StampContext& ctx) const {
  if (ctx.kind == AnalysisKind::Dc || ctx.dt <= 0.0) return; // open in DC
  const bool trap = !ctx.first_step;
  const double geq = trap ? 2.0 * c_ / ctx.dt : c_ / ctx.dt;
  const double ieq = trap ? geq * v_prev_ + i_prev_ : geq * v_prev_;
  st.add_all(slots_, quad_pos(a_, b_), {geq, geq, -geq, -geq});
  st.add_rhs(a_, ieq);
  st.add_rhs(b_, -ieq);
}

void Capacitor::commit(const Solution& x, const StampContext& ctx) {
  if (ctx.kind == AnalysisKind::Dc || ctx.dt <= 0.0) {
    v_prev_ = x.v(a_) - x.v(b_);
    i_prev_ = 0.0;
    return;
  }
  const bool trap = !ctx.first_step;
  const double geq = trap ? 2.0 * c_ / ctx.dt : c_ / ctx.dt;
  const double v_now = x.v(a_) - x.v(b_);
  const double ieq = trap ? geq * v_prev_ + i_prev_ : geq * v_prev_;
  i_prev_ = geq * v_now - ieq; // current through the capacitor at t
  v_prev_ = v_now;
}

VoltageSource::VoltageSource(std::string name, int plus, int minus,
                             std::unique_ptr<Waveform> wave)
    : Element(std::move(name)), plus_(plus), minus_(minus),
      wave_(std::move(wave)) {
  if (!wave_) throw std::invalid_argument("VoltageSource: null waveform");
}

void VoltageSource::stamp(MnaSystem& st, const Solution&,
                          const StampContext& ctx) const {
  const int br = static_cast<int>(branch_base());
  // KCL rows: current leaves + node, enters - node; branch row:
  // v(+) - v(-) = V(t).
  st.add_all(slots_,
             {{{plus_, br}, {minus_, br}, {br, plus_}, {br, minus_}}},
             {1.0, -1.0, 1.0, -1.0});
  st.add_rhs(br, wave_->value(ctx.t));
}

CurrentSource::CurrentSource(std::string name, int plus, int minus,
                             std::unique_ptr<Waveform> wave)
    : Element(std::move(name)), plus_(plus), minus_(minus),
      wave_(std::move(wave)) {
  if (!wave_) throw std::invalid_argument("CurrentSource: null waveform");
}

void CurrentSource::stamp(MnaSystem& st, const Solution&,
                          const StampContext& ctx) const {
  const double i = wave_->value(ctx.t);
  // Positive current flows + -> (through source) -> -: leaves node +,
  // is injected into node -.
  st.add_rhs(plus_, -i);
  st.add_rhs(minus_, i);
}

Switch::Switch(std::string name, int a, int b, int ctrl_p, int ctrl_n,
               double threshold, double r_on, double r_off)
    : Element(std::move(name)), a_(a), b_(b), cp_(ctrl_p), cn_(ctrl_n),
      vth_(threshold), r_on_(r_on), r_off_(r_off) {
  if (r_on_ <= 0.0 || r_off_ <= r_on_) {
    throw std::invalid_argument("Switch: need 0 < r_on < r_off");
  }
}

void Switch::stamp(MnaSystem& st, const Solution& x,
                   const StampContext&) const {
  const double vc = x.v(cp_) - x.v(cn_);
  const double g = vc > vth_ ? 1.0 / r_on_ : 1.0 / r_off_;
  st.add_all(slots_, quad_pos(a_, b_), {g, g, -g, -g});
}

} // namespace mss::spice
