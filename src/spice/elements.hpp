// Linear circuit elements: resistor, capacitor, independent voltage and
// current sources (with arbitrary waveforms), and a voltage-controlled
// switch.
#pragma once

#include <memory>

#include "spice/circuit.hpp"
#include "spice/waveform.hpp"

namespace mss::spice {

/// Two-terminal linear resistor.
class Resistor final : public Element {
 public:
  Resistor(std::string name, int a, int b, double ohms);
  void stamp(MnaSystem& st, const Solution& x,
             const StampContext& ctx) const override;
  /// Resistance value [Ohm].
  [[nodiscard]] double ohms() const { return r_; }

 private:
  int a_, b_;
  double r_;
  mutable StampSlots<4> slots_;
};

/// Two-terminal linear capacitor (companion model in transient; open in DC).
class Capacitor final : public Element {
 public:
  Capacitor(std::string name, int a, int b, double farads,
            double v_initial = 0.0);
  void stamp(MnaSystem& st, const Solution& x,
             const StampContext& ctx) const override;
  void commit(const Solution& x, const StampContext& ctx) override;
  void reset() override;

 private:
  int a_, b_;
  double c_;
  double v0_;
  double v_prev_ = 0.0;
  double i_prev_ = 0.0;
  mutable StampSlots<4> slots_;
};

/// Independent voltage source with a waveform; claims one branch unknown.
class VoltageSource final : public Element {
 public:
  VoltageSource(std::string name, int plus, int minus,
                std::unique_ptr<Waveform> wave);
  [[nodiscard]] int branch_count() const override { return 1; }
  void stamp(MnaSystem& st, const Solution& x,
             const StampContext& ctx) const override;

 private:
  int plus_, minus_;
  std::unique_ptr<Waveform> wave_;
  mutable StampSlots<4> slots_;
};

/// Independent current source (flows from plus through the source to minus,
/// i.e. injects into `minus`... SPICE convention: positive current flows
/// from the + node through the source to the - node).
class CurrentSource final : public Element {
 public:
  CurrentSource(std::string name, int plus, int minus,
                std::unique_ptr<Waveform> wave);
  void stamp(MnaSystem& st, const Solution& x,
             const StampContext& ctx) const override;

 private:
  int plus_, minus_;
  std::unique_ptr<Waveform> wave_;
};

/// Voltage-controlled switch: resistance r_on when v(ctrl+) - v(ctrl-)
/// exceeds the threshold, r_off otherwise. Mildly nonlinear (re-stamped per
/// iteration) with hysteresis-free sharp threshold; adequate for enable
/// gating in characterisation benches.
class Switch final : public Element {
 public:
  Switch(std::string name, int a, int b, int ctrl_p, int ctrl_n,
         double threshold, double r_on = 1.0, double r_off = 1e9);
  [[nodiscard]] bool nonlinear() const override { return true; }
  void stamp(MnaSystem& st, const Solution& x,
             const StampContext& ctx) const override;

 private:
  int a_, b_, cp_, cn_;
  double vth_, r_on_, r_off_;
  mutable StampSlots<4> slots_;
};

} // namespace mss::spice
