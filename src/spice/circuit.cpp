#include "spice/circuit.hpp"

#include <stdexcept>

namespace mss::spice {

namespace {

bool is_ground(const std::string& name) {
  return name == "0" || name == "gnd" || name == "GND";
}

} // namespace

int Circuit::node(const std::string& name) {
  if (is_ground(name)) return kGround;
  return index_.try_emplace(name, static_cast<int>(index_.size()))
      .first->second;
}

int Circuit::find_node(const std::string& name) const {
  if (is_ground(name)) return kGround;
  auto it = index_.find(name);
  if (it == index_.end()) {
    throw std::out_of_range("Circuit: unknown node '" + name + "'");
  }
  return it->second;
}

std::size_t Circuit::find_branch(const std::string& name) const {
  for (const auto& e : elements_) {
    if (e->branch_count() > 0 && e->name() == name) return e->branch_base();
  }
  throw std::out_of_range("Circuit: unknown voltage source '" + name + "'");
}

std::size_t Circuit::assign_unknowns() {
  std::size_t next = index_.size();
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
