// DC operating-point (Newton-Raphson) and fixed-step transient analysis
// over a Circuit: trapezoidal integration after a backward-Euler first
// step. Every solve runs on the one sparse LU (sparse.hpp), from
// cell-level netlists of tens of unknowns to array-level ones of
// thousands. Assembly is one serial stamping pass per Newton iteration,
// through the elements' cached stamp slots; the solver always refactors by
// replaying the dirty set.
//
// A transient stores only the signals its caller probes, named in MDL's
// grammar: `v(<node>)` or `i(<vsource>)`. There is one storage mode, the
// time grid plus one column per probe; reading an unprobed signal throws.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/sparse.hpp"

namespace mss::spice {

/// Solver options.
struct EngineOptions {
  double vtol = 1e-6;      ///< Newton convergence: |dx| <= vtol*max(1,|x|)
  int max_newton = 200;    ///< Newton iteration cap per solve
  double gmin = 1e-12;     ///< node-to-ground shunt conductance
  double damping = 0.6;    ///< max voltage change per Newton step [V]
};

/// A signal in MDL's grammar, split into its parts: `v(<node>)` is a node
/// voltage, `i(<vsource>)` a voltage source's branch current (the kind
/// letter in either case).
struct Signal {
  bool current = false; ///< `i(...)` rather than `v(...)`
  std::string name;     ///< the node or source name inside the parentheses
};

/// Parses `text` as a signal; std::nullopt unless it is `v(<name>)` or
/// `i(<name>)` with a non-empty name. The one syntax check of the grammar,
/// shared by transient probes and MDL scripts.
[[nodiscard]] std::optional<Signal> parse_signal(const std::string& text);

/// DC solve outcome.
struct DcResult {
  bool converged = false;
  std::vector<double> x; ///< unknown vector (node voltages + branch currents)
};

/// Stored transient waveforms: the time grid plus one column per probe.
/// A probe names a signal in MDL's grammar (mdl.hpp): `v(<node>)` is a
/// node voltage (a ground name reads all zeros) and `i(<vsource>)` the
/// branch current of a voltage source (positive current flows from +
/// through the source to -). Only the probed signals are stored.
class TransientResult {
 public:
  /// Time points [s].
  [[nodiscard]] const std::vector<double>& times() const { return times_; }
  /// Waveform of a probe, keyed by the probe string exactly as it was
  /// passed to `Engine::transient`. Throws std::out_of_range for a signal
  /// that was not probed.
  [[nodiscard]] const std::vector<double>& waveform(
      const std::string& probe) const;
  /// Number of stored steps.
  [[nodiscard]] std::size_t size() const { return times_.size(); }
  /// Whether every step converged.
  [[nodiscard]] bool converged() const { return converged_; }
  /// Accepted steps (== size() - 1).
  [[nodiscard]] std::size_t accepted_steps() const {
    return times_.empty() ? 0 : times_.size() - 1;
  }

 private:
  friend class Engine;
  std::vector<double> times_;
  std::vector<std::string> probes_;          ///< as the caller passed them
  std::vector<std::vector<double>> columns_; ///< one per probe
  bool converged_ = true;
};

/// The analysis driver. Borrows the circuit for its lifetime.
class Engine {
 public:
  explicit Engine(Circuit& circuit, EngineOptions options = {});

  /// DC operating point at t = 0 (capacitors open, waveforms evaluated at 0).
  [[nodiscard]] DcResult dc();

  /// Fixed-step transient from 0 to `t_stop`: backward Euler on the first
  /// step after the starting state, trapezoidal on every later one.
  /// When `use_initial_conditions` is true the run starts from x = 0 with
  /// element initial conditions (capacitor v0); otherwise a DC operating
  /// point is computed first and committed as the starting state.
  /// `probes` are the signals the result stores (see TransientResult);
  /// they are resolved before the first step, so a malformed probe throws
  /// std::invalid_argument and an unknown node or source
  /// std::out_of_range without running the analysis.
  [[nodiscard]] TransientResult transient(
      double t_stop, double dt, const std::vector<std::string>& probes,
      bool use_initial_conditions = false);

  /// Numeric factorizations performed so far — the dirty-stamp cache
  /// observable (a linear fixed-step transient settles at three: DC
  /// operating point, first backward-Euler step, steady trapezoidal
  /// pattern).
  [[nodiscard]] std::size_t factor_count() const {
    return solver_.factor_count();
  }

  /// Total columns numerically factored — the refactorization observable
  /// (full refactors contribute `dim` each; a dirty-set replay only the
  /// columns it recomputed).
  [[nodiscard]] std::size_t factor_cols_total() const {
    return solver_.factor_cols_total();
  }

 private:
  Circuit& ckt_;
  EngineOptions opt_;

  // Persistent solve state, sized once per dimension and reused across
  // every timestep and Newton iteration: the transient hot loop performs no
  // heap allocation after the first step. The solver owns the assembled
  // matrix, its factorization, and the dirty-stamp refactor cache.
  SparseSolver solver_;
  std::vector<double> rhs_;   ///< stamped right-hand side
  std::vector<double> x_new_; ///< solve output buffer

  // Cached gmin diagonal slots (invalidated via the solver stamp epoch).
  GminSlotCache gmin_slots_;

  /// One Newton solve at the given context; x is in/out. Returns converged.
  bool solve(std::vector<double>& x, const StampContext& ctx,
             std::size_t dim);

  /// Commits every element for an accepted step.
  void commit_all(const std::vector<double>& x, const StampContext& ctx);
};

} // namespace mss::spice
