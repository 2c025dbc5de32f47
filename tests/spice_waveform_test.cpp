// Tests of the stimulus waveforms.
#include "spice/waveform.hpp"

#include <cmath>
#include <gtest/gtest.h>

namespace ms = mss::spice;

TEST(Waveform, DcIsConstant) {
  const ms::DcWave w(1.8);
  EXPECT_EQ(w.value(0.0), 1.8);
  EXPECT_EQ(w.value(1.0), 1.8);
}

TEST(Waveform, PulseShape) {
  // PULSE(0 1 t_d=1n tr=1n tf=1n pw=3n)
  const ms::PulseWave w(0.0, 1.0, 1e-9, 1e-9, 1e-9, 3e-9);
  EXPECT_EQ(w.value(0.0), 0.0);          // before delay
  EXPECT_EQ(w.value(0.99e-9), 0.0);
  EXPECT_NEAR(w.value(1.5e-9), 0.5, 1e-9); // mid-rise
  EXPECT_EQ(w.value(3e-9), 1.0);           // plateau
  EXPECT_NEAR(w.value(5.5e-9), 0.5, 1e-9); // mid-fall
  EXPECT_EQ(w.value(8e-9), 0.0);           // after
}

TEST(Waveform, PulsePeriodicRepeats) {
  const ms::PulseWave w(0.0, 1.0, 0.0, 1e-9, 1e-9, 3e-9, 10e-9);
  EXPECT_NEAR(w.value(2e-9), w.value(12e-9), 1e-12);
  EXPECT_NEAR(w.value(4.5e-9), w.value(14.5e-9), 1e-12);
}

TEST(Waveform, PulseRejectsZeroEdges) {
  EXPECT_THROW(ms::PulseWave(0, 1, 0, 0.0, 1e-9, 1e-9),
               std::invalid_argument);
}

TEST(Waveform, PwlInterpolatesAndClamps) {
  const ms::PwlWave w({{1e-9, 0.0}, {2e-9, 1.0}, {4e-9, -1.0}});
  EXPECT_EQ(w.value(0.0), 0.0);            // clamp left
  EXPECT_NEAR(w.value(1.5e-9), 0.5, 1e-9); // first segment
  EXPECT_NEAR(w.value(3e-9), 0.0, 1e-9);   // second segment
  EXPECT_EQ(w.value(9e-9), -1.0);          // clamp right
}

TEST(Waveform, PwlRejectsNonMonotonicTime) {
  EXPECT_THROW(ms::PwlWave({{1e-9, 0.0}, {1e-9, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(ms::PwlWave({}), std::invalid_argument);
}
