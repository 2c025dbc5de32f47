// MTJ as a circuit element: a state-dependent, bias-dependent nonlinear
// resistor whose internal state switches when the stack current exceeds the
// critical current for long enough — the Verilog-A compact-device role in
// the paper's PDK, ported to the MNA engine.
//
// Terminal convention: node `a` is the free-layer terminal, node `b` the
// reference-layer terminal. Conventional current a -> b (electrons from the
// reference into the free layer) drives the device towards the *parallel*
// state; the reverse polarity writes antiparallel.
//
// Switching dynamics in transient: while the current exceeds the critical
// current of the pending transition, the device accumulates switching
// "phase" at rate 1/t_sw(I); the state flips when the phase reaches 1.
// If the drive collapses below half the critical current the incubation is
// lost and the phase resets — a deterministic rendition of the behavioural
// compact model, adequate for waveform-level cell characterisation.
#pragma once

#include <vector>

#include "core/compact_model.hpp"
#include "spice/circuit.hpp"

namespace mss::spice {

/// MTJ two-terminal device.
class MtjDevice final : public Element {
 public:
  MtjDevice(std::string name, int free_node, int ref_node,
            core::MtjParams params,
            core::MtjState initial = core::MtjState::Parallel);

  [[nodiscard]] bool nonlinear() const override { return true; }
  void stamp(MnaSystem& st, const Solution& x,
             const StampContext& ctx) const override;
  void commit(const Solution& x, const StampContext& ctx) override;
  void reset() override;

  /// Present magnetic state.
  [[nodiscard]] core::MtjState state() const { return state_; }
  /// Switching-phase accumulator in [0, 1).
  [[nodiscard]] double phase() const { return phase_; }
  /// Times at which the state flipped during the last transient [s].
  [[nodiscard]] const std::vector<double>& flip_times() const {
    return flip_times_;
  }
  /// Stack current samples (time, amps) recorded at each accepted step;
  /// positive = free -> reference.
  [[nodiscard]] const std::vector<std::pair<double, double>>& current_trace()
      const {
    return current_trace_;
  }
  /// The underlying compact model.
  [[nodiscard]] const core::MtjCompactModel& model() const { return model_; }

 private:
  int a_, b_;
  core::MtjCompactModel model_;
  core::MtjState initial_;
  core::MtjState state_;
  double phase_ = 0.0;
  std::vector<double> flip_times_;
  std::vector<std::pair<double, double>> current_trace_;
  mutable StampSlots<4> slots_;

  /// Device current for a terminal voltage difference.
  [[nodiscard]] double current(double v_ab) const;
};

} // namespace mss::spice
