// Pluggable linear-solver layer of the MNA engine.
//
// Every analysis (DC Newton, transient stepping, AC sweep) assembles the
// system matrix through the same assembly interface — `begin` / `add` /
// `solve` — and never sees the storage format. Two backends implement it:
//
//  * a dense LU with partial pivoting (templated over the scalar so the AC
//    sweep shares it) — fastest for the cell-level netlists of tens of
//    unknowns;
//  * a sparse LU (sparse.hpp: triplet assembly -> CSC, fill-reducing column
//    ordering — RCM or approximate-minimum-degree, picked by predicted
//    fill under Ordering::Auto — left-looking factorization with threshold
//    partial pivoting) — the one array-scale path, sub-quadratic per
//    transient step.
//
// Both backends keep the stamped values next to their factorization and
// refactor only when the values change (the dirty-stamp cache): a linear
// transient factors twice (first backward-Euler step + the steady
// trapezoidal pattern) and back-substitutes every step after that. The
// sparse backend additionally restarts an invalidated factorization at the
// first changed pivot position (partial refactorization), reusing the
// untouched L/U prefix bit-for-bit, and inside that suffix recomputes only
// the columns the changed values reach (scattered refactorization).
//
// Hot restamps go through the slot-handle fast path: `slot(i, j)` resolves
// the accumulation slot of a position once, `add_slot` accumulates by
// handle without the position lookup. Handles stay valid while
// `stamp_epoch()` is unchanged; epochs are globally unique across solver
// instances, so a (instance pointer, epoch) pair cached by an element can
// never alias a different solver that happens to reuse the address.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace mss::spice {

/// Backend selection. `Auto` picks dense below `kSparseAutoThreshold`
/// unknowns and sparse at or above it.
enum class SolverKind { Auto, Dense, Sparse };

/// Fill-reducing column ordering of the sparse backend. `Auto` computes
/// both RCM and AMD and keeps whichever predicts less factor fill for the
/// assembled pattern (RCM's profile heuristic wins on banded ladders, AMD
/// on meshy periphery netlists). Ignored by the dense backend.
enum class Ordering { Auto, Natural, Rcm, Amd };

/// Dimension at which `Auto` switches from the dense to the sparse backend.
/// Cell-level netlists (bit cells, flip-flops, sense amps) stay dense;
/// array-level netlists go sparse.
inline constexpr std::size_t kSparseAutoThreshold = 96;

/// Resolves `Auto` against a system dimension.
[[nodiscard]] SolverKind resolve_solver(SolverKind kind, std::size_t dim);

namespace detail {
/// Allocates a fresh stamp epoch — one shared monotonic counter for the
/// real and complex solver instantiations (thread-safe).
[[nodiscard]] std::uint64_t next_stamp_epoch();
} // namespace detail

/// The solver abstraction all analyses stamp into.
///
/// Protocol per solve: `begin(dim)` clears the accumulated values (cheap —
/// symbolic state and factorization caches survive), elements `add`
/// coefficient contributions (by position, or by cached slot handle), then
/// `solve` factors (only if the stamped values differ from the factored
/// copy) and back-substitutes.
template <typename T>
class LinearSolverT {
 public:
  /// Slot-handle sentinel used by callers for ground-dropped positions.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  virtual ~LinearSolverT() = default;

  /// Starts a stamping pass for an n x n system. Changing `dim` resets the
  /// backend completely (and bumps the stamp epoch); re-using the same
  /// `dim` only zeroes the values.
  virtual void begin(std::size_t dim) = 0;

  /// Accumulates A[i][j] += v. Valid between `begin` and `solve`.
  virtual void add(std::size_t i, std::size_t j, T v) = 0;

  /// Resolves the accumulation slot of position (i, j), inserting the
  /// position into the pattern if never seen. The handle stays valid — and
  /// keeps addressing the same position — while `stamp_epoch()` is
  /// unchanged.
  [[nodiscard]] virtual std::uint32_t slot(std::size_t i, std::size_t j) = 0;

  /// Accumulates A[slot] += v, skipping the position lookup. `slot` must
  /// come from `this->slot()` under the current stamp epoch.
  virtual void add_slot(std::uint32_t slot, T v) = 0;

  /// Epoch of the slot address space: changes whenever previously returned
  /// handles become invalid (dimension reset). Monotonic and unique across
  /// all solver instances in the process.
  [[nodiscard]] std::uint64_t stamp_epoch() const { return epoch_; }

  /// Solves A x = b for the stamped A. `x` is resized by the call. Returns
  /// false when the matrix is numerically singular (the factorization cache
  /// is invalidated so the next solve retries from scratch).
  [[nodiscard]] virtual bool solve(const std::vector<T>& b,
                                   std::vector<T>& x) = 0;

  /// Dimension of the last `begin`.
  [[nodiscard]] virtual std::size_t dim() const = 0;

  /// Number of numeric factorizations performed so far — the observable of
  /// the dirty-stamp cache (a linear transient stays at 2 forever).
  [[nodiscard]] virtual std::size_t factor_count() const = 0;

  /// Total columns numerically factored so far. A full refactorization
  /// contributes `dim`; a sparse partial refactorization contributes only
  /// the recomputed suffix — the observable of the partial-refactor path.
  [[nodiscard]] virtual std::size_t factor_cols_total() const = 0;

  /// Backend name for diagnostics ("dense" / "sparse").
  [[nodiscard]] virtual const char* name() const = 0;

 protected:
  /// Invalidates all outstanding slot handles.
  void bump_epoch() { epoch_ = detail::next_stamp_epoch(); }

 private:
  std::uint64_t epoch_ = detail::next_stamp_epoch();
};

using LinearSolver = LinearSolverT<double>;
using AcLinearSolver = LinearSolverT<std::complex<double>>;

/// Backend configuration the analyses hand to the factory.
struct SolverOptions {
  SolverKind kind = SolverKind::Auto;
  Ordering ordering = Ordering::Auto; ///< sparse column ordering policy
  /// Sparse: restart an invalidated factorization at the first changed
  /// pivot position instead of recomputing every column. Bit-identical to
  /// a full refactorization; off only for A/B validation.
  bool partial_refactor = true;
};

/// Creates the real-valued solver for a backend choice and dimension.
[[nodiscard]] std::unique_ptr<LinearSolver> make_solver(SolverKind kind,
                                                        std::size_t dim);
[[nodiscard]] std::unique_ptr<LinearSolver> make_solver(
    const SolverOptions& options, std::size_t dim);

/// Creates the complex-valued solver (AC sweep) for a backend choice.
[[nodiscard]] std::unique_ptr<AcLinearSolver> make_ac_solver(SolverKind kind,
                                                             std::size_t dim);
[[nodiscard]] std::unique_ptr<AcLinearSolver> make_ac_solver(
    const SolverOptions& options, std::size_t dim);

} // namespace mss::spice
