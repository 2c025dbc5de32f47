// The linear solver of the MNA engine: triplet assembly ->
// compressed-sparse-column pattern, a reverse-Cuthill-McKee column
// ordering, and a left-looking (Gilbert-Peierls-style) sparse LU with
// threshold partial pivoting. Both analyses (DC Newton, transient
// stepping) stamp straight into it, from the cell-level netlists of tens
// of unknowns to the array netlists of thousands.
//
// Protocol per solve: `begin(dim)` clears the accumulated values (symbolic
// state and factorization caches survive), elements accumulate
// coefficients — by position (`add`) or by cached slot handle
// (`add_slot`) — then `solve` factors only if the stamped values differ
// from the factored copy, and back-substitutes.
//
// Assembly model. MNA stamps are position-stable but *value*-varying: every
// Newton iteration re-stamps the same (i, j) set with new linearisations,
// and nonlinear elements may emit the entries of that set in a different
// order (the MOSFET swaps drain/source rows with the bias polarity). The
// solver therefore keys accumulation slots off an (i, j) hash map whose
// union pattern grows monotonically; the CSC structure, the column
// ordering, and the slot -> CSC scatter map are rebuilt only when a
// never-seen position appears, which for a fixed netlist happens exactly
// once. Per-pass cost after that is O(nnz) accumulate + gather. Elements
// skip even the hash via the slot-handle fast path (`slot`/`add_slot`):
// slot indices are append-only under a fixed dimension, so cached handles
// survive pattern growth and are invalidated — via the stamp epoch — only
// by a dimension reset. Epochs are unique across solver instances, so a
// (instance pointer, epoch) pair cached by an element can never alias a
// different solver that happens to reuse the address.
//
// Ordering. RCM minimises the profile, which keeps the fill of the banded
// ladder/line and array netlists low; it is computed once per pattern
// rebuild.
//
// Factorization. One column kernel eliminates each pivot position (in
// RCM order): it scatters the column of A into a dense work vector,
// applies the earlier pivot columns in ascending pivot order via a
// min-heap worklist (entries only ever introduce later pivots, so the heap
// pops monotonically), and picks the pivot row by threshold partial
// pivoting: the diagonal row wins whenever it is within a fixed tolerance
// (0.1) of the column maximum, preserving the ordering's structure;
// otherwise the max row wins, which is what makes the zero-diagonal branch
// rows of voltage sources solvable. L and U are stored column-wise in flat
// arrays reused across refactors.
//
// The dirty-value cache compares the gathered CSC values against the
// factored copy and skips the numeric factorization when unchanged, so a
// linear transient pays one back-substitution — O(nnz(L) + nnz(U)) — per
// step. When values *did* change, the solver replays the dirty set through
// the same kernel: the columns whose own A column changed plus their
// dependents through the stored U structure (a left-looking column depends
// only on its A column and on the pivot columns its U references). A
// replayed column that lands on the stored pivot row and L/U row sequences
// overwrites its values in place; at the first one that does not, the
// factorization restarts from that position. Either way the result is
// bit-identical to a full refactor, which runs only when no valid
// factorization exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace mss::spice {

/// Slot-handle sentinel used by callers for ground-dropped positions.
inline constexpr std::uint32_t kNoSlot = 0xffffffffu;

namespace detail {
/// Allocates a fresh stamp epoch — one process-wide monotonic counter
/// shared by every solver instance (thread-safe).
[[nodiscard]] std::uint64_t next_stamp_epoch();
} // namespace detail

/// Reverse-Cuthill-McKee ordering of a sparse pattern given in CSC form
/// (the pattern is symmetrised internally; every component is seeded from a
/// pseudo-peripheral vertex). Returns `order` with order[k] = the original
/// index placed at position k. Exposed for tests.
[[nodiscard]] std::vector<std::uint32_t> rcm_order(
    std::size_t dim, const std::vector<std::uint32_t>& col_ptr,
    const std::vector<std::uint32_t>& row_ind);

/// The linear solver.
class SparseSolver final {
 public:
  /// Enables/disables the dirty-set replay (on by default; the off state
  /// is the full-refactor reference the tests compare against).
  void set_partial_refactor(bool enabled) { partial_ = enabled; }

  /// Starts a stamping pass for an n x n system. Changing `dim` resets the
  /// solver completely (and bumps the stamp epoch); re-using the same
  /// `dim` only zeroes the values.
  void begin(std::size_t dim);

  /// Accumulates A[i][j] += v. Valid between `begin` and `solve`.
  void add(std::size_t i, std::size_t j, double v) { vals_[slot(i, j)] += v; }

  /// Resolves the accumulation slot of position (i, j), inserting the
  /// position into the pattern if never seen. The handle stays valid — and
  /// keeps addressing the same position — while `stamp_epoch()` is
  /// unchanged.
  [[nodiscard]] std::uint32_t slot(std::size_t i, std::size_t j);

  /// Accumulates A[slot] += v, skipping the position lookup. `slot` must
  /// come from `this->slot()` under the current stamp epoch.
  void add_slot(std::uint32_t slot, double v) { vals_[slot] += v; }

  /// Epoch of the slot address space: changes whenever previously returned
  /// handles become invalid (dimension reset). Monotonic and unique across
  /// all solver instances in the process.
  [[nodiscard]] std::uint64_t stamp_epoch() const { return epoch_; }

  /// Solves A x = b for the stamped A. `x` is resized by the call. Returns
  /// false when the matrix is numerically singular (the factorization cache
  /// is invalidated so the next solve retries from scratch).
  [[nodiscard]] bool solve(const std::vector<double>& b, std::vector<double>& x);

  /// Dimension of the last `begin`.
  [[nodiscard]] std::size_t dim() const { return dim_; }

  /// Number of numeric factorizations performed so far — the observable of
  /// the dirty-value cache.
  [[nodiscard]] std::size_t factor_count() const { return factor_count_; }

  /// Total columns numerically factored so far. A full refactorization
  /// contributes `dim`; a replay contributes the columns it recomputed —
  /// the observable of the dirty-set replay.
  [[nodiscard]] std::size_t factor_cols_total() const {
    return factor_cols_total_;
  }

  /// Accumulated A[i][j] of the current stamping pass (0 for a position
  /// outside the pattern) — read access for tests that rebuild the
  /// assembled matrix.
  [[nodiscard]] double value(std::size_t i, std::size_t j) const;

  /// First pivot position the last numeric factorization could change:
  /// the L/U columns below it were reused as they were.
  [[nodiscard]] std::size_t last_factor_start() const {
    return last_factor_start_;
  }
  /// Columns the dirty-set replay committed in place over the solver's
  /// lifetime; the suffix a replay deviation restarts is not counted.
  [[nodiscard]] std::size_t scattered_cols_total() const {
    return scattered_cols_total_;
  }

 private:
  std::size_t dim_ = 0;
  std::uint64_t epoch_ = detail::next_stamp_epoch();
  bool partial_ = true;
  std::size_t factor_count_ = 0;
  std::size_t factor_cols_total_ = 0;
  std::size_t scattered_cols_total_ = 0;
  std::size_t last_factor_start_ = 0;

  // --- assembly: union pattern keyed by (i, j) ---
  std::unordered_map<std::uint64_t, std::uint32_t> slot_of_;
  std::vector<std::uint32_t> slot_row_, slot_col_;
  std::vector<double> vals_; ///< accumulation, indexed by slot
  bool pattern_dirty_ = true;

  // --- symbolic state (rebuilt when the pattern grows) ---
  std::vector<std::uint32_t> col_ptr_, row_ind_; ///< CSC pattern
  std::vector<std::uint32_t> csc_of_slot_;       ///< slot -> CSC position
  std::vector<std::uint32_t> q_;    ///< column order (position -> column)
  std::vector<std::uint32_t> qpos_; ///< column -> pivot position

  // --- numeric values + dirty-value factorization cache ---
  std::vector<double> csc_vals_;    ///< gathered values in CSC order
  std::vector<double> cached_vals_; ///< values the current factorization is of
  bool factor_valid_ = false;

  // --- factors: L (unit diagonal implicit) and U, column-wise ---
  std::vector<std::uint32_t> l_ptr_, l_rows_; ///< L rows are original rows
  std::vector<double> l_vals_;
  std::vector<std::uint32_t> u_ptr_, u_rows_; ///< U rows are pivot orders
  std::vector<double> u_vals_;
  std::vector<double> diag_;                  ///< U diagonal, by pivot order
  std::vector<std::int32_t> pinv_;       ///< original row -> pivot order
  std::vector<std::uint32_t> prow_;      ///< pivot order -> original row

  // --- scratch (persistent, allocation-free in steady state) ---
  std::vector<double> work_;                  ///< dense column accumulator
  std::vector<std::uint8_t> mark_;       ///< row-touched flags
  std::vector<std::uint32_t> heap_;      ///< pending pivot updates
  std::vector<std::uint32_t> candidates_; ///< pivot candidates of the column
  std::vector<std::uint32_t> touched_;   ///< rows to unmark after a column
  std::vector<std::uint8_t> dirty_pos_;  ///< pivot position -> stamps changed
  std::vector<double> sol_;                   ///< solution by pivot order

  void rebuild_symbolic();
  /// The column kernel: eliminates pivot position `k`, appends its U and L
  /// entries to the ends of `u_rows_`/`u_vals_` and `l_rows_`/`l_vals_`,
  /// and picks its pivot row `pr` (value `piv`). Rows pivoted before `k`
  /// update the column; all others are pivot candidates. Returns false
  /// when the column is numerically singular.
  [[nodiscard]] bool eliminate(std::size_t k, std::uint32_t& pr, double& piv);
  /// Numeric factorization from pivot position `start` (0 = full), appended
  /// to the L/U columns below `start`, which requires a complete valid
  /// factorization when `start > 0`.
  [[nodiscard]] bool factor(std::size_t start);
  /// Replays the dirty set from `first_dirty` (`dirty_pos_` holds the
  /// own-dirty flags), rewriting L/U values in place, and falls back to
  /// `factor(k)` at the first column that deviates from the stored trace.
  [[nodiscard]] bool refactor(std::size_t first_dirty);
};

} // namespace mss::spice
