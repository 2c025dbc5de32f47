// The SPICE array stage of reliability_flow: array write and read
// characterisation through the cells layer, one call at a time, at default
// solver options.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cells/characterization.hpp"
#include "common.hpp"

namespace perfbench {

class ArrayStage {
 public:
  /// Generates the stage's geometries and pulses from `seed`.
  explicit ArrayStage(std::uint64_t seed);

  /// Adds the generated inputs to an inputs digest.
  void digest(Digest& d) const;
  /// Set-up: builds the write netlist of every geometry.
  void build_netlists(Tracer& tr, std::uint64_t group) const;
  /// Runs every call once, as pass `pass` of the run. Each call is one
  /// attempted operation of `out`; a call fails unless it switches and
  /// converges (writes) or has a positive margin (reads), and its result is
  /// bit-identical to the one of pass 0.
  void run(std::size_t pass, Tracer& tr, std::uint64_t parent, Outcome& out);

 private:
  struct Op {
    bool write = true;
    mss::core::WriteDirection dir = mss::core::WriteDirection::ToParallel;
    double pulse = 0.0; ///< write pulse width or read time [s]
    mss::cells::ArrayNetlistOptions geometry;
    std::string tag; ///< "r64", "r256", "r1024"
  };

  mss::core::Pdk pdk_;
  std::vector<Op> ops_;
  std::vector<std::uint64_t> first_; ///< pass-0 result digest of each op
};

} // namespace perfbench
