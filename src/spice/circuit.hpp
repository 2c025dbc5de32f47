// Netlist container and the element interface of the MNA engine.
//
// Unknown vector layout: x = [v(1..N-1 nodes, ground excluded), i(branches)].
// Elements register nodes by name through the Circuit and may claim branch
// unknowns (voltage sources).
//
// Elements stamp into an `MnaSystem`, which drops ground rows/columns and
// forwards matrix coefficients straight into the sparse LU (sparse.hpp) — a
// direct call, no virtual dispatch per entry.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "spice/sparse.hpp"

namespace mss::spice {

/// Ground node index sentinel (node "0", "gnd" or "GND").
inline constexpr int kGround = -1;

/// What the engine is currently computing; elements stamp differently for
/// DC (capacitors open) vs transient (companion models).
enum class AnalysisKind { Dc, Transient };

/// Per-iteration context handed to Element::stamp. Dynamic elements
/// integrate with backward Euler on the first transient step and
/// trapezoidal on every later one.
struct StampContext {
  AnalysisKind kind = AnalysisKind::Dc;
  double t = 0.0;     ///< time at the *end* of the current step
  double dt = 0.0;    ///< current step size (0 in DC)
  bool first_step = false; ///< transient: first step after DC (use BE)
};

/// Per-element cache of resolved stamp slots for a fixed set of N (i, j)
/// positions. An element declares one `mutable StampSlots<N>` member per
/// stamping pattern and accumulates through `MnaSystem::add_all`, which
/// re-resolves the handles only when the (solver instance, stamp epoch)
/// tag no longer matches — i.e. after the element was stamped into another
/// solver (another engine) or the solver was reset to a new dimension. Not
/// thread-safe per element: a circuit (and therefore its elements) belongs
/// to one engine at a time.
template <std::size_t N>
struct StampSlots {
  const void* owner = nullptr; ///< solver the handles index into
  std::uint64_t epoch = 0;     ///< solver stamp epoch at resolve time
  std::array<std::uint32_t, N> s{};
};

/// Runtime-sized cache of the per-node diagonal slots the analyses stamp
/// their gmin ground shunts into — the same (owner, epoch) invalidation
/// contract as StampSlots, for a slot count only known at analysis time.
class GminSlotCache {
 public:
  /// Accumulates `gmin` on every node diagonal through cached slots,
  /// re-resolving when the solver instance/epoch/node count changed.
  void add_all(SparseSolver& solver, std::size_t n_nodes, double gmin) {
    if (owner_ != &solver || epoch_ != solver.stamp_epoch() ||
        slots_.size() != n_nodes) {
      slots_.resize(n_nodes);
      for (std::size_t k = 0; k < n_nodes; ++k) slots_[k] = solver.slot(k, k);
      owner_ = &solver;
      epoch_ = solver.stamp_epoch();
    }
    for (std::size_t k = 0; k < n_nodes; ++k) {
      solver.add_slot(slots_[k], gmin);
    }
  }

 private:
  const void* owner_ = nullptr;
  std::uint64_t epoch_ = 0;
  std::vector<std::uint32_t> slots_;
};

/// The MNA system elements stamp into: matrix coefficients go to the linear
/// solver, RHS terms to the analysis-owned right-hand-side vector.
/// Node index kGround is silently dropped.
class MnaSystem {
 public:
  /// `use_slot_cache` routes `add_all` through cached slot handles; false
  /// forces the per-position `add_g` path, the uncached-stamping reference
  /// the tests compare against (Engine always caches).
  MnaSystem(SparseSolver& solver, std::vector<double>& rhs,
            bool use_slot_cache = true)
      : solver_(solver), rhs_(rhs), cache_(use_slot_cache) {}

  /// Adds g to A[i][j] (conductance).
  void add_g(int i, int j, double g) {
    if (i == kGround || j == kGround) return;
    solver_.add(static_cast<std::size_t>(i), static_cast<std::size_t>(j), g);
  }

  /// Accumulates `vals[k]` at `pos[k]` through the element's slot cache:
  /// slots are resolved once per (solver, epoch) and every later restamp
  /// is a direct indexed add, skipping the solver's position lookup.
  /// Ground positions resolve to kNoSlot and are dropped. Accumulation
  /// order matches the equivalent add_g sequence exactly, so cached and
  /// uncached restamps are bit-identical.
  template <std::size_t N>
  void add_all(StampSlots<N>& cache,
               const std::array<std::pair<int, int>, N>& pos,
               const std::array<double, N>& vals) {
    if (!cache_) {
      for (std::size_t k = 0; k < N; ++k) {
        add_g(pos[k].first, pos[k].second, vals[k]);
      }
      return;
    }
    if (cache.owner != &solver_ || cache.epoch != solver_.stamp_epoch()) {
      for (std::size_t k = 0; k < N; ++k) {
        cache.s[k] =
            (pos[k].first == kGround || pos[k].second == kGround)
                ? kNoSlot
                : solver_.slot(static_cast<std::size_t>(pos[k].first),
                               static_cast<std::size_t>(pos[k].second));
      }
      cache.owner = &solver_;
      cache.epoch = solver_.stamp_epoch();
    }
    for (std::size_t k = 0; k < N; ++k) {
      if (cache.s[k] != kNoSlot) {
        solver_.add_slot(cache.s[k], vals[k]);
      }
    }
  }

  /// Adds value to RHS[i] (current injected *into* node i).
  void add_rhs(int i, double v) {
    if (i == kGround) return;
    rhs_[static_cast<std::size_t>(i)] += v;
  }

 private:
  SparseSolver& solver_;
  std::vector<double>& rhs_;
  bool cache_;
};

/// Read access to the present Newton iterate / last accepted solution.
class Solution {
 public:
  explicit Solution(const std::vector<double>& x) : x_(&x) {}
  /// Voltage at node index (0 for ground).
  [[nodiscard]] double v(int node) const {
    return node == kGround ? 0.0 : (*x_)[static_cast<std::size_t>(node)];
  }

 private:
  const std::vector<double>* x_;
};

/// Base class of all circuit elements.
class Element {
 public:
  explicit Element(std::string name) : name_(std::move(name)) {}
  virtual ~Element() = default;

  Element(const Element&) = delete;
  Element& operator=(const Element&) = delete;

  /// Instance name (diagnostics, MDL current probes).
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Number of extra branch-current unknowns this element needs.
  [[nodiscard]] virtual int branch_count() const { return 0; }
  /// Called once by the circuit with the index of the first claimed branch
  /// unknown (absolute index into x).
  void set_branch_base(std::size_t base) { branch_base_ = base; }
  /// Index of the first claimed branch unknown (valid after
  /// Circuit::assign_unknowns).
  [[nodiscard]] std::size_t branch_base() const { return branch_base_; }

  /// True when the element's stamps depend on the present iterate
  /// (MOSFET, MTJ): forces Newton iteration.
  [[nodiscard]] virtual bool nonlinear() const { return false; }

  /// Adds the element's contribution for the current iterate `x`.
  virtual void stamp(MnaSystem& st, const Solution& x,
                     const StampContext& ctx) const = 0;

  /// Accepts the converged step (update internal state: capacitor history,
  /// MTJ switching phase).
  virtual void commit(const Solution& /*x*/, const StampContext& /*ctx*/) {}

  /// Resets internal state before a new analysis.
  virtual void reset() {}

 private:
  std::string name_;
  std::size_t branch_base_ = 0;
};

/// The netlist: nodes by name + owned elements.
class Circuit {
 public:
  /// Returns the index for a node name, creating it on first use.
  /// "0", "gnd" and "GND" map to the ground sentinel.
  int node(const std::string& name);

  /// Number of non-ground nodes.
  [[nodiscard]] std::size_t node_count() const { return index_.size(); }

  /// Index of an existing node (kGround for a ground name); throws
  /// std::out_of_range if absent.
  [[nodiscard]] int find_node(const std::string& name) const;

  /// Branch-current unknown of the named voltage source (valid after
  /// assign_unknowns); throws std::out_of_range if there is none.
  [[nodiscard]] std::size_t find_branch(const std::string& name) const;

  /// Adds an element (ownership transferred). Returns a borrowed pointer
  /// usable for later state queries.
  template <typename T>
  T* add(std::unique_ptr<T> e) {
    T* raw = e.get();
    elements_.push_back(std::move(e));
    return raw;
  }

  /// Owned elements.
  [[nodiscard]] std::vector<std::unique_ptr<Element>>& elements() {
    return elements_;
  }

  /// Assigns branch indices; returns total unknown count. Called by the
  /// engine before an analysis.
  std::size_t assign_unknowns();

  /// Stamps every element for the given iterate/context — the one assembly
  /// path both analyses share.
  void stamp_all(MnaSystem& st, const Solution& x,
                 const StampContext& ctx) const;

  /// True when any element's stamps depend on the iterate (forces Newton).
  [[nodiscard]] bool any_nonlinear() const;

 private:
  std::unordered_map<std::string, int> index_;
  std::vector<std::unique_ptr<Element>> elements_;
};

} // namespace mss::spice
