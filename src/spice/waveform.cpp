#include "spice/waveform.hpp"

#include <cmath>
#include <stdexcept>

namespace mss::spice {

PulseWave::PulseWave(double v1, double v2, double delay, double rise,
                     double fall, double width, double period)
    : v1_(v1), v2_(v2), delay_(delay), rise_(rise), fall_(fall), width_(width),
      period_(period) {
  if (rise_ <= 0.0 || fall_ <= 0.0) {
    throw std::invalid_argument("PulseWave: rise/fall must be > 0");
  }
}

double PulseWave::value(double t) const {
  if (t < delay_) return v1_;
  double tt = t - delay_;
  if (period_ > 0.0) tt = std::fmod(tt, period_);
  if (tt < rise_) return v1_ + (v2_ - v1_) * (tt / rise_);
  tt -= rise_;
  if (tt < width_) return v2_;
  tt -= width_;
  if (tt < fall_) return v2_ + (v1_ - v2_) * (tt / fall_);
  return v1_;
}

PwlWave::PwlWave(std::vector<std::pair<double, double>> points)
    : points_(std::move(points)) {
  if (points_.empty()) throw std::invalid_argument("PwlWave: empty");
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (points_[i].first <= points_[i - 1].first) {
      throw std::invalid_argument("PwlWave: times must be increasing");
    }
  }
}

double PwlWave::value(double t) const {
  if (t <= points_.front().first) return points_.front().second;
  if (t >= points_.back().first) return points_.back().second;
  std::size_t lo = 0, hi = points_.size() - 1;
  while (hi - lo > 1) {
    const std::size_t mid = (lo + hi) / 2;
    if (points_[mid].first <= t)
      lo = mid;
    else
      hi = mid;
  }
  const auto [t0, v0] = points_[lo];
  const auto [t1, v1] = points_[hi];
  return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
}

} // namespace mss::spice
