#include "spice/circuit.hpp"

#include <stdexcept>

namespace mss::spice {

int Circuit::node(const std::string& name) {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const int idx = static_cast<int>(names_.size());
  names_.push_back(name);
  index_.emplace(name, idx);
  return idx;
}

int Circuit::find_node(const std::string& name) const {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  auto it = index_.find(name);
  if (it == index_.end()) {
    throw std::out_of_range("Circuit: unknown node '" + name + "'");
  }
  return it->second;
}

std::size_t Circuit::assign_unknowns() {
  std::size_t next = names_.size();
  for (auto& e : elements_) {
    const int n = e->branch_count();
    if (n > 0) {
      e->set_branch_base(next);
      next += static_cast<std::size_t>(n);
    }
  }
  return next;
}

void Circuit::stamp_all(MnaSystem& st, const Solution& x,
                        const StampContext& ctx) const {
  for (const auto& e : elements_) e->stamp(st, x, ctx);
}

bool Circuit::any_nonlinear() const {
  for (const auto& e : elements_) {
    if (e->nonlinear()) return true;
  }
  return false;
}

} // namespace mss::spice
