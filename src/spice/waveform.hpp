// Time-domain stimulus descriptions for independent sources: DC, PULSE
// and PWL — the subset of SPICE stimuli the paper's cell
// characterisation flow needs.
#pragma once

#include <memory>
#include <utility>
#include <vector>

namespace mss::spice {

/// Abstract stimulus: value as a function of time.
class Waveform {
 public:
  virtual ~Waveform() = default;
  /// Value at time t [s].
  [[nodiscard]] virtual double value(double t) const = 0;
};

/// Constant value.
class DcWave final : public Waveform {
 public:
  explicit DcWave(double v) : v_(v) {}
  [[nodiscard]] double value(double) const override { return v_; }

 private:
  double v_;
};

/// SPICE PULSE(v1 v2 td tr tf pw per). A zero `per` means a single pulse.
class PulseWave final : public Waveform {
 public:
  PulseWave(double v1, double v2, double delay, double rise, double fall,
            double width, double period = 0.0);
  [[nodiscard]] double value(double t) const override;

 private:
  double v1_, v2_, delay_, rise_, fall_, width_, period_;
};

/// Piecewise-linear (time, value) pairs; clamps outside the span.
class PwlWave final : public Waveform {
 public:
  explicit PwlWave(std::vector<std::pair<double, double>> points);
  [[nodiscard]] double value(double t) const override;

 private:
  std::vector<std::pair<double, double>> points_;
};

} // namespace mss::spice
