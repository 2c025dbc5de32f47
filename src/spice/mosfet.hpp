// Level-1 (Shichman-Hodges) MOSFET, the classic square-law model with
// channel-length modulation. Quantitatively crude for deep-submicron
// devices but entirely adequate for the relative delay/energy
// characterisation the paper's flow performs, and well-conditioned for
// Newton iteration. Parameters default to values representative of the PDK
// nodes; the cells library scales W/L per cell.
#pragma once

#include "spice/circuit.hpp"

namespace mss::spice {

/// Device polarity.
enum class MosType { Nmos, Pmos };

/// Model card shared by instances.
struct MosModel {
  MosType type = MosType::Nmos;
  double vth = 0.35;    ///< threshold voltage [V] (magnitude)
  double kp = 500e-6;   ///< transconductance mu*Cox [A/V^2]
  double lambda = 0.1;  ///< channel-length modulation [1/V]
  double c_gate_per_m = 1.0e-9; ///< gate cap per metre of width [F/m]

  /// Representative NMOS card for a PDK node feature size.
  [[nodiscard]] static MosModel nmos(double vth = 0.35, double kp = 500e-6);
  /// Representative PMOS card.
  [[nodiscard]] static MosModel pmos(double vth = 0.35, double kp = 250e-6);
};

/// One MOSFET instance (D, G, S; bulk tied to source).
class Mosfet final : public Element {
 public:
  Mosfet(std::string name, int drain, int gate, int source, MosModel model,
         double width_m, double length_m);

  [[nodiscard]] bool nonlinear() const override { return true; }
  void stamp(MnaSystem& st, const Solution& x,
             const StampContext& ctx) const override;

  /// Drain current for the given terminal voltages (exposed for tests).
  [[nodiscard]] double ids(double vgs, double vds) const;

  /// Channel width [m].
  [[nodiscard]] double width() const { return w_; }

 private:
  int d_, g_, s_;
  MosModel m_;
  double w_, l_;
  mutable StampSlots<6> slots_;

  /// Square-law current + derivatives for an NMOS-referred bias point.
  void eval(double vgs, double vds, double& id, double& gm, double& gds) const;
};

} // namespace mss::spice
