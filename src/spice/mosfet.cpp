#include "spice/mosfet.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mss::spice {

namespace {
/// Shunt conductance added across D-S for Newton robustness.
constexpr double kGmin = 1e-9;
} // namespace

MosModel MosModel::nmos(double vth, double kp) {
  MosModel m;
  m.type = MosType::Nmos;
  m.vth = vth;
  m.kp = kp;
  return m;
}

MosModel MosModel::pmos(double vth, double kp) {
  MosModel m;
  m.type = MosType::Pmos;
  m.vth = vth;
  m.kp = kp;
  return m;
}

Mosfet::Mosfet(std::string name, int drain, int gate, int source,
               MosModel model, double width_m, double length_m)
    : Element(std::move(name)), d_(drain), g_(gate), s_(source), m_(model),
      w_(width_m), l_(length_m) {
  if (w_ <= 0.0 || l_ <= 0.0) {
    throw std::invalid_argument("Mosfet: non-positive W or L");
  }
}

void Mosfet::eval(double vgs, double vds, double& id, double& gm,
                  double& gds) const {
  // NMOS-referred with vds >= 0 (caller normalises polarity and orientation).
  const double beta = m_.kp * w_ / l_;
  const double vov = vgs - m_.vth;
  if (vov <= 0.0) {
    id = 0.0;
    gm = 0.0;
    gds = 0.0;
    return;
  }
  const double clm = 1.0 + m_.lambda * vds;
  if (vds < vov) {
    id = beta * (vov * vds - 0.5 * vds * vds) * clm;
    gm = beta * vds * clm;
    gds = beta * (vov - vds) * clm +
          beta * (vov * vds - 0.5 * vds * vds) * m_.lambda;
  } else {
    id = 0.5 * beta * vov * vov * clm;
    gm = beta * vov * clm;
    gds = 0.5 * beta * vov * vov * m_.lambda;
  }
}

double Mosfet::ids(double vgs, double vds) const {
  double sign = 1.0;
  if (m_.type == MosType::Pmos) {
    vgs = -vgs;
    vds = -vds;
    sign = -1.0;
  }
  bool swapped = false;
  if (vds < 0.0) {
    vgs = vgs - vds; // gate-to-(new source) with terminals exchanged
    vds = -vds;
    swapped = true;
  }
  double id, gm, gds;
  eval(vgs, vds, id, gm, gds);
  const double i_internal = swapped ? -id : id;
  return sign * i_internal;
}

void Mosfet::stamp(MnaSystem& st, const Solution& x,
                   const StampContext&) const {
  // Work in the NMOS-referred frame: negate voltages for PMOS, swap
  // drain/source so vds >= 0. In that frame the drain current is
  //   I = ieq + gm * (vg - v_ns) + gds * (v_nd - v_ns),
  // flowing out of node `nd` into node `ns`.
  //
  // Conductance stamps are identical for both polarities
  // (d(-i)/d(-v) = di/dv); only the equivalent current flips for PMOS.
  double vd = x.v(d_);
  double vg = x.v(g_);
  double vs = x.v(s_);
  double sign = 1.0;
  if (m_.type == MosType::Pmos) {
    vd = -vd;
    vg = -vg;
    vs = -vs;
    sign = -1.0;
  }
  int nd = d_, ns = s_;
  bool swapped = false;
  if (vd < vs) {
    std::swap(vd, vs);
    std::swap(nd, ns);
    swapped = true;
  }
  const double vgs = vg - vs;
  const double vds = vd - vs;
  double id, gm, gds;
  eval(vgs, vds, id, gm, gds);
  const double ieq = id - gm * vgs - gds * vds;

  // Row nd (current out), row ns (current in), with the convergence gmin
  // across the physical channel folded in. The position set is fixed —
  // the drain/source swap permutes the *values*, not the slots — so the
  // per-element slot cache stays valid for any bias polarity.
  const double g_dd = swapped ? gm + gds + kGmin : gds + kGmin;
  const double g_dg = swapped ? -gm : gm;
  const double g_ds = swapped ? -gds - kGmin : -(gm + gds) - kGmin;
  const double g_ss = swapped ? gds + kGmin : gm + gds + kGmin;
  const double g_sg = swapped ? gm : -gm;
  const double g_sd = swapped ? -(gm + gds) - kGmin : -gds - kGmin;
  st.add_all(slots_,
             {{{d_, d_}, {d_, g_}, {d_, s_}, {s_, d_}, {s_, g_}, {s_, s_}}},
             {g_dd, g_dg, g_ds, g_sd, g_sg, g_ss});
  // For NMOS the equivalent source is -ieq at nd / +ieq at ns; for PMOS the
  // physical drain current is the negated internal one, flipping the sign.
  st.add_rhs(nd, -sign * ieq);
  st.add_rhs(ns, sign * ieq);
}

} // namespace mss::spice
