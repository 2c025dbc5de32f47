#include "spice/controlled.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mss::spice {

Vcvs::Vcvs(std::string name, int p, int n, int cp, int cn, double gain)
    : Element(std::move(name)), p_(p), n_(n), cp_(cp), cn_(cn), gain_(gain) {}

void Vcvs::stamp(MnaSystem& st, const Solution&, const StampContext&) const {
  const int br = static_cast<int>(branch_);
  // KCL rows, then the branch row: v(p) - v(n) - gain*(v(cp) - v(cn)) = 0.
  st.add_all(slots_,
             {{{p_, br}, {n_, br}, {br, p_}, {br, n_}, {br, cp_}, {br, cn_}}},
             {1.0, -1.0, 1.0, -1.0, -gain_, gain_});
}

Vccs::Vccs(std::string name, int p, int n, int cp, int cn, double gm)
    : Element(std::move(name)), p_(p), n_(n), cp_(cp), cn_(cn), gm_(gm) {}

void Vccs::stamp(MnaSystem& st, const Solution&, const StampContext&) const {
  // Current gm*(v(cp)-v(cn)) flows out of p into n.
  st.add_all(slots_, {{{p_, cp_}, {p_, cn_}, {n_, cp_}, {n_, cn_}}},
             {gm_, -gm_, -gm_, gm_});
}

Diode::Diode(std::string name, int anode, int cathode, double i_s,
             double n_ideality)
    : Element(std::move(name)), a_(anode), c_(cathode), i_s_(i_s),
      vt_n_(n_ideality * 0.025852) {
  if (i_s_ <= 0.0 || n_ideality <= 0.0) {
    throw std::invalid_argument("Diode: bad model parameters");
  }
}

double Diode::current(double v) const {
  // Clamp the exponent so evaluation never overflows; the Newton loop's
  // damping brings the iterate back into range.
  const double x = std::min(v / vt_n_, 80.0);
  return i_s_ * std::expm1(x);
}

void Diode::stamp(MnaSystem& st, const Solution& x,
                  const StampContext&) const {
  const double v = x.v(a_) - x.v(c_);
  const double vl = std::min(v / vt_n_, 80.0);
  const double g = std::max(1e-12, i_s_ * std::exp(vl) / vt_n_);
  const double i = current(v);
  const double ieq = i - g * v;
  st.add_all(slots_, {{{a_, a_}, {c_, c_}, {a_, c_}, {c_, a_}}},
             {g, g, -g, -g});
  st.add_rhs(a_, -ieq);
  st.add_rhs(c_, ieq);
}

Inductor::Inductor(std::string name, int a, int b, double henries,
                   double i_initial)
    : Element(std::move(name)), a_(a), b_(b), l_(henries), i0_(i_initial),
      i_prev_(i_initial) {
  if (l_ <= 0.0) throw std::invalid_argument("Inductor: non-positive value");
}

void Inductor::reset() {
  i_prev_ = i0_;
  v_prev_ = 0.0;
}

void Inductor::stamp(MnaSystem& st, const Solution&,
                     const StampContext& ctx) const {
  const int br = static_cast<int>(branch_);
  const bool dc = ctx.kind == AnalysisKind::Dc || ctx.dt <= 0.0;
  // KCL: branch current flows a -> b. Branch row: DC short circuit
  // v(a) - v(b) = 0, or the companion v(a) - v(b) - req * i = rhs.
  // BE: v_n = (L/dt)(i_n - i_{n-1});
  // trapezoidal: v_n = (2L/dt)(i_n - i_{n-1}) - v_{n-1}.
  // The (br, br) position is stamped (with 0) in DC too so the sparse
  // pattern stays stable between the operating point and the transient.
  const bool trap = !ctx.first_step;
  const double req = dc ? 0.0 : (trap ? 2.0 : 1.0) * l_ / ctx.dt;
  st.add_all(slots_, {{{a_, br}, {b_, br}, {br, a_}, {br, b_}, {br, br}}},
             {1.0, -1.0, 1.0, -1.0, -req});
  if (!dc) {
    st.add_rhs(br, trap ? (-req * i_prev_ - v_prev_) : (-req * i_prev_));
  }
}

void Inductor::commit(const Solution& x, const StampContext& ctx) {
  i_prev_ = x.raw(branch_);
  if (ctx.kind == AnalysisKind::Transient && ctx.dt > 0.0) {
    v_prev_ = x.v(a_) - x.v(b_);
  } else {
    v_prev_ = 0.0;
  }
}

} // namespace mss::spice
