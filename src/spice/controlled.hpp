// Controlled sources, diode and inductor — the remaining SPICE element
// vocabulary used by analog MSS interface circuits (sensor front-ends,
// oscillator read-out chains).
#pragma once

#include "spice/circuit.hpp"

namespace mss::spice {

/// Voltage-controlled voltage source (E element): v(p) - v(n) =
/// gain * (v(cp) - v(cn)). Claims one branch unknown.
class Vcvs final : public Element {
 public:
  Vcvs(std::string name, int p, int n, int cp, int cn, double gain);
  [[nodiscard]] int branch_count() const override { return 1; }
  void set_branch_base(std::size_t base) override { branch_ = base; }
  void stamp(MnaSystem& st, const Solution& x,
             const StampContext& ctx) const override;
  /// Branch-current unknown index.
  [[nodiscard]] std::size_t branch_index() const { return branch_; }

 private:
  int p_, n_, cp_, cn_;
  double gain_;
  std::size_t branch_ = 0;
  mutable StampSlots<6> slots_;
};

/// Voltage-controlled current source (G element): i(p->n) =
/// gm * (v(cp) - v(cn)).
class Vccs final : public Element {
 public:
  Vccs(std::string name, int p, int n, int cp, int cn, double gm);
  void stamp(MnaSystem& st, const Solution& x,
             const StampContext& ctx) const override;

 private:
  int p_, n_, cp_, cn_;
  double gm_;
  mutable StampSlots<4> slots_;
};

/// Junction diode with the exponential Shockley model, series-limited for
/// Newton robustness (voltage clamp per iteration via the standard
/// junction-limiting scheme).
class Diode final : public Element {
 public:
  /// `i_s` saturation current [A], `n_ideality` emission coefficient.
  Diode(std::string name, int anode, int cathode, double i_s = 1e-14,
        double n_ideality = 1.0);
  [[nodiscard]] bool nonlinear() const override { return true; }
  void stamp(MnaSystem& st, const Solution& x,
             const StampContext& ctx) const override;
  /// Diode current at a junction voltage.
  [[nodiscard]] double current(double v) const;

 private:
  int a_, c_;
  double i_s_;
  double vt_n_; ///< n * thermal voltage
  mutable StampSlots<4> slots_;
};

/// Linear inductor; claims a branch unknown carrying its current.
/// Transient companion model (BE / trapezoidal); short circuit in DC.
class Inductor final : public Element {
 public:
  Inductor(std::string name, int a, int b, double henries,
           double i_initial = 0.0);
  [[nodiscard]] int branch_count() const override { return 1; }
  void set_branch_base(std::size_t base) override { branch_ = base; }
  void stamp(MnaSystem& st, const Solution& x,
             const StampContext& ctx) const override;
  void commit(const Solution& x, const StampContext& ctx) override;
  void reset() override;

 private:
  int a_, b_;
  double l_;
  double i0_;
  std::size_t branch_ = 0;
  double i_prev_ = 0.0;
  double v_prev_ = 0.0;
  mutable StampSlots<5> slots_;
};

} // namespace mss::spice
