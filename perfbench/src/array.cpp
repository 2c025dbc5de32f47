// The SPICE array stage of reliability_flow.
//
// One run of the stage writes 64^2 and 256^2 arrays in both directions,
// writes one 1024^2 array towards antiparallel and reads one 64^2 array.
// The two writes at 64^2 and 256^2 get pulse widths w and 10 ns - w (w
// seeded in [4, 6] ns), and the 1024^2 write gets 5 ns, so every seed
// simulates the same total pulse time per size. Target cells are seeded.
// 1024^2 (dim 11276) crosses kSchurAutoDim, so its write takes the
// default-routed Schur backend.
#include "array.hpp"

namespace perfbench {
namespace {

using mss::core::WriteDirection;

constexpr double kReadTime = 2e-9;
constexpr double kPulseSum = 10e-9; ///< summed pulse of a size's two writes
constexpr double kPulse1024 = 5e-9;

std::uint64_t digest_write(const mss::cells::ArrayWriteResult& r) {
  Digest d;
  d.add(std::uint64_t(r.switched)).add(std::uint64_t(r.converged));
  d.add(r.t_switch).add(r.energy).add(r.i_peak).add(r.i_settled);
  d.add(std::uint64_t(r.dim)).add(std::uint64_t(r.steps)).add(r.backend);
  d.add(std::uint64_t(r.factor_cols)).add(std::uint64_t(r.supernodes));
  d.add(std::uint64_t(r.supernode_cols));
  return d.value();
}

std::uint64_t digest_read(const mss::cells::ArrayReadResult& r) {
  Digest d;
  d.add(r.i_cell_p).add(r.i_cell_ap).add(r.delta_i).add(r.energy_read);
  d.add(std::uint64_t(r.dim)).add(std::uint64_t(r.steps)).add(r.backend);
  d.add(std::uint64_t(r.factor_cols));
  return d.value();
}

} // namespace

ArrayStage::ArrayStage(std::uint64_t seed) : pdk_(mss::core::Pdk::mss45()) {
  Gen g(seed ^ 0xA77Aull);
  const auto cell = [&](std::size_t n) {
    mss::cells::ArrayNetlistOptions o;
    o.rows = n;
    o.cols = n;
    o.target_col = g.below(n);
    o.target_row = g.below(n);
    return o;
  };
  for (const std::size_t n : {64, 256}) {
    const double w = g.uniform(4e-9, 6e-9);
    const std::string tag = "r" + std::to_string(n);
    ops_.push_back({true, WriteDirection::ToParallel, w, cell(n), tag});
    ops_.push_back({true, WriteDirection::ToAntiparallel, kPulseSum - w, cell(n), tag});
  }
  ops_.push_back({true, WriteDirection::ToAntiparallel, kPulse1024, cell(1024), "r1024"});
  ops_.push_back({false, WriteDirection::ToParallel, kReadTime, cell(64), "r64"});
  first_.assign(ops_.size(), 0);
}

void ArrayStage::digest(Digest& d) const {
  for (const Op& op : ops_) {
    d.add(std::uint64_t(op.write)).add(std::uint64_t(op.dir)).add(op.pulse);
    d.add(std::uint64_t(op.geometry.rows)).add(std::uint64_t(op.geometry.cols));
    d.add(std::uint64_t(op.geometry.target_col));
    d.add(std::uint64_t(op.geometry.target_row));
  }
}

void ArrayStage::build_netlists(Tracer& tr, std::uint64_t group) const {
  std::string last;
  for (const Op& op : ops_) {
    if (!op.write || op.tag == last) continue; // one netlist per size
    last = op.tag;
    Scope s(tr, "cells.netlist." + op.tag, group);
    (void)mss::cells::build_array_write_netlist(pdk_, op.geometry, op.dir, op.pulse);
  }
}

void ArrayStage::run(std::size_t pass, Tracer& tr, std::uint64_t parent,
                     Outcome& out) {
  const std::uint64_t group = pass + 1;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    ++out.attempted;
    std::uint64_t digest = 0;
    std::string bad;
    const double o0 = now_s();
    try {
      if (op.write) {
        const auto r = mss::cells::characterize_array_write(pdk_, op.geometry,
                                                            op.dir, op.pulse);
        tr.record("cells.write." + op.tag, o0, now_s(), group, parent);
        digest = digest_write(r);
        if (!(r.switched && r.converged)) bad = "write did not switch/converge";
        if (pass == 0) { // per stage run: summed over the writes of a size
          tr.count("spice.factor_cols." + op.tag, double(r.factor_cols));
          tr.count("spice.steps." + op.tag, double(r.steps));
          tr.count("spice.dim." + op.tag, op.dir == WriteDirection::ToAntiparallel
                                              ? double(r.dim) : 0.0);
          out.detail["spice.backend." + op.tag] = r.backend;
        }
      } else {
        const auto r = mss::cells::characterize_array_read(pdk_, op.geometry, op.pulse);
        tr.record("cells.read." + op.tag, o0, now_s(), group, parent);
        digest = digest_read(r);
        if (!(r.delta_i > 0.0)) bad = "read margin not positive";
      }
    } catch (const std::exception& e) {
      bad = e.what();
    }
    if (pass == 0) first_[i] = digest;
    if (bad.empty() && digest != first_[i]) bad = "result differs from pass 1";
    if (!bad.empty()) {
      out.fail("array " + op.tag + (op.write ? " write: " : " read: ") + bad);
    } else {
      out.results += 1.0;
    }
  }
}

} // namespace perfbench
