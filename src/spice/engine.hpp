// DC operating-point (Newton-Raphson) and transient analysis over a
// Circuit, with trapezoidal or backward-Euler integration. Fixed-step
// transient plus an adaptive variant driven by a local-truncation-error
// step-doubling controller that lands exactly on source-waveform
// breakpoints. Every solve runs on the one sparse LU (sparse.hpp), from
// cell-level netlists of tens of unknowns to array-level ones of
// thousands. Assembly is one serial stamping pass per Newton iteration,
// through the elements' cached stamp slots; partial refactorization is
// always on.
#pragma once

#include <string>
#include <unordered_map>
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
  Integrator method = Integrator::Trapezoidal;
};

/// Controller knobs of the adaptive transient (Engine::transient_adaptive).
struct AdaptiveOptions {
  double ltol_rel = 1e-3;  ///< per-step relative local-truncation tolerance
  double ltol_abs = 1e-6;  ///< absolute floor of the error weight [V]
  double dt_min = 0.0;     ///< smallest step; 0 = dt_initial / 1024
  double dt_max = 0.0;     ///< largest step; 0 = max(dt_initial, t_stop/16)
  double grow_limit = 2.0; ///< max step growth per accepted step
  double safety = 0.9;     ///< controller safety factor
  /// Integrator of the controlled run. Backward Euler by default: it is
  /// L-stable, so the step-doubling error estimate decays for the stiff
  /// parasitic modes of array netlists. Trapezoidal rings at dt >> tau
  /// (amplification factor -> -1), which keeps the estimate above any
  /// tolerance and pins the controller at dt_min — pick it only for
  /// mildly stiff circuits where its second order pays off.
  Integrator method = Integrator::BackwardEuler;
};

/// DC solve outcome.
struct DcResult {
  bool converged = false;
  int iterations = 0;
  std::vector<double> x; ///< unknown vector (node voltages + branch currents)
};

/// Stored transient waveforms with name-based signal access.
class TransientResult {
 public:
  /// Time points [s].
  [[nodiscard]] const std::vector<double>& times() const { return times_; }

  /// Voltage of a named node at step k.
  [[nodiscard]] double v(const std::string& node, std::size_t k) const;
  /// Voltage of a named node at time t, linearly interpolated between the
  /// stored samples (clamped at the run's ends) — the way to compare
  /// adaptive-step waveforms against a fixed-step reference grid.
  [[nodiscard]] double v_at(const std::string& node, double t) const;
  /// Complete voltage waveform of a named node.
  [[nodiscard]] std::vector<double> voltage(const std::string& node) const;
  /// Branch current through a named voltage source at step k
  /// (positive current flows from + through the source to -).
  [[nodiscard]] double i(const std::string& vsource, std::size_t k) const;
  /// Complete current waveform of a named voltage source.
  [[nodiscard]] std::vector<double> current(const std::string& vsource) const;
  /// True when the named signal exists ("v:<node>" or "i:<source>").
  [[nodiscard]] bool has_node(const std::string& node) const;
  [[nodiscard]] bool has_source(const std::string& vsource) const;
  /// Number of stored steps.
  [[nodiscard]] std::size_t size() const { return times_.size(); }
  /// Whether every step converged.
  [[nodiscard]] bool converged() const { return converged_; }
  /// Accepted steps (== size() - 1 for both transient flavours).
  [[nodiscard]] std::size_t accepted_steps() const {
    return times_.empty() ? 0 : times_.size() - 1;
  }
  /// Steps the adaptive controller rejected and retried (0 in fixed-step).
  [[nodiscard]] std::size_t rejected_steps() const { return rejected_; }

 private:
  friend class Engine;
  std::vector<double> times_;
  std::vector<std::vector<double>> samples_;
  std::unordered_map<std::string, std::size_t> node_index_;
  std::unordered_map<std::string, std::size_t> source_branch_;
  bool converged_ = true;
  std::size_t rejected_ = 0;

  [[nodiscard]] std::size_t idx_of_node(const std::string& node) const;
  [[nodiscard]] std::size_t idx_of_source(const std::string& vsource) const;
};

/// The analysis driver. Borrows the circuit for its lifetime.
class Engine {
 public:
  explicit Engine(Circuit& circuit, EngineOptions options = {});

  /// DC operating point at t = 0 (capacitors open, waveforms evaluated at 0).
  [[nodiscard]] DcResult dc();

  /// Fixed-step transient from 0 to `t_stop`.
  /// When `use_initial_conditions` is true the run starts from x = 0 with
  /// element initial conditions (capacitor v0); otherwise a DC operating
  /// point is computed first and committed as the starting state.
  [[nodiscard]] TransientResult transient(double t_stop, double dt,
                                          bool use_initial_conditions = false);

  /// Adaptive transient from 0 to `t_stop`, starting at `dt_initial`.
  /// Local truncation error is estimated by step doubling (one full step
  /// vs two half steps; the half-step result is kept), steps halve on
  /// rejection and grow up to `grow_limit` on easy acceptance, and the
  /// stepper lands exactly on every source-waveform breakpoint (pulse and
  /// PWL corners) and on `t_stop`, so no stimulus edge is stepped over.
  [[nodiscard]] TransientResult transient_adaptive(
      double t_stop, double dt_initial, AdaptiveOptions adaptive = {},
      bool use_initial_conditions = false);

  /// Numeric factorizations performed so far — the dirty-stamp cache
  /// observable (a linear fixed-step transient settles at three: DC
  /// operating point, first backward-Euler step, steady trapezoidal
  /// pattern).
  [[nodiscard]] std::size_t factor_count() const {
    return solver_.factor_count();
  }

  /// Total columns numerically factored — the partial-refactorization
  /// observable (full refactors contribute `dim` each; partial refactors
  /// contribute only the recomputed columns).
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

  /// Fills the result's node/source lookup maps.
  void init_result_maps(TransientResult& res) const;

  /// Commits every element for an accepted step.
  void commit_all(const std::vector<double>& x, const StampContext& ctx);
};

} // namespace mss::spice
