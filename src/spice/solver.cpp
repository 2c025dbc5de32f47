#include "spice/solver.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "spice/sparse.hpp"

namespace mss::spice {

namespace {

/// Doolittle LU with partial pivoting over flat row-major storage,
/// templated so the real and complex dense backends share one kernel.
template <typename T>
[[nodiscard]] bool dense_lu_factor(std::vector<T>& a,
                                   std::vector<std::uint32_t>& pivots,
                                   std::size_t n) {
  pivots.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    double best = std::abs(a[k * n + k]);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(a[r * n + k]);
      if (v > best) {
        best = v;
        piv = r;
      }
    }
    if (best < 1e-300) return false;
    pivots[k] = static_cast<std::uint32_t>(piv);
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(a[k * n + c], a[piv * n + c]);
      }
    }
    const T inv_pivot = T(1.0) / a[k * n + k];
    for (std::size_t r = k + 1; r < n; ++r) {
      const T f = a[r * n + k] * inv_pivot;
      a[r * n + k] = f;
      if (f == T{}) continue;
      for (std::size_t c = k + 1; c < n; ++c) a[r * n + c] -= f * a[k * n + c];
    }
  }
  return true;
}

template <typename T>
void dense_lu_substitute(const std::vector<T>& lu,
                         const std::vector<std::uint32_t>& pivots,
                         std::vector<T>& b, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    if (pivots[k] != k) std::swap(b[k], b[pivots[k]]);
    T acc = b[k];
    for (std::size_t c = 0; c < k; ++c) acc -= lu[k * n + c] * b[c];
    b[k] = acc;
  }
  for (std::size_t ri = n; ri-- > 0;) {
    T acc = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= lu[ri * n + c] * b[c];
    b[ri] = acc / lu[ri * n + ri];
  }
}

/// Dense backend: flat row-major accumulation with the value-compare
/// factorization cache. Slot handles are the flat row-major offsets, valid
/// for the lifetime of a dimension.
template <typename T>
class DenseSolver final : public LinearSolverT<T> {
 public:
  void begin(std::size_t dim) override {
    if (dim != dim_) {
      dim_ = dim;
      g_.assign(dim * dim, T{});
      cached_.assign(dim * dim, T{});
      factor_valid_ = false;
      this->bump_epoch();
    } else {
      std::fill(g_.begin(), g_.end(), T{});
    }
  }

  void add(std::size_t i, std::size_t j, T v) override {
    g_[i * dim_ + j] += v;
  }

  [[nodiscard]] std::uint32_t slot(std::size_t i, std::size_t j) override {
    return static_cast<std::uint32_t>(i * dim_ + j);
  }

  void add_slot(std::uint32_t slot, T v) override { g_[slot] += v; }

  [[nodiscard]] bool solve(const std::vector<T>& b,
                           std::vector<T>& x) override {
    if (b.size() != dim_) {
      throw std::invalid_argument("DenseSolver: rhs dimension mismatch");
    }
    if (!factor_valid_ || g_ != cached_) {
      // Invalidate first: a failed factorization leaves lu_ clobbered and
      // must not stay paired with the old cached_ values.
      factor_valid_ = false;
      lu_ = g_;
      if (!dense_lu_factor(lu_, pivots_, dim_)) return false;
      cached_ = g_;
      factor_valid_ = true;
      ++factor_count_;
      factor_cols_ += dim_;
    }
    x = b;
    dense_lu_substitute(lu_, pivots_, x, dim_);
    return true;
  }

  [[nodiscard]] std::size_t dim() const override { return dim_; }
  [[nodiscard]] std::size_t factor_count() const override {
    return factor_count_;
  }
  [[nodiscard]] std::size_t factor_cols_total() const override {
    return factor_cols_;
  }
  [[nodiscard]] const char* name() const override { return "dense"; }

 private:
  std::size_t dim_ = 0;
  std::vector<T> g_, cached_, lu_;
  std::vector<std::uint32_t> pivots_;
  bool factor_valid_ = false;
  std::size_t factor_count_ = 0;
  std::size_t factor_cols_ = 0;
};

} // namespace

namespace detail {

// Epochs are unique across every solver in the process, so a cached
// (owner, epoch) pair can never alias a new solver allocated at a recycled
// address.
std::uint64_t next_stamp_epoch() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

} // namespace detail

SolverKind resolve_solver(SolverKind kind, std::size_t dim) {
  if (kind != SolverKind::Auto) return kind;
  return dim >= kSparseAutoThreshold ? SolverKind::Sparse : SolverKind::Dense;
}

std::unique_ptr<LinearSolver> make_solver(const SolverOptions& options,
                                          std::size_t dim) {
  if (resolve_solver(options.kind, dim) == SolverKind::Sparse) {
    auto s = std::make_unique<SparseSolver>();
    s->set_ordering(options.ordering);
    s->set_partial_refactor(options.partial_refactor);
    return s;
  }
  return std::make_unique<DenseSolver<double>>();
}

std::unique_ptr<LinearSolver> make_solver(SolverKind kind, std::size_t dim) {
  SolverOptions o;
  o.kind = kind;
  return make_solver(o, dim);
}

std::unique_ptr<AcLinearSolver> make_ac_solver(const SolverOptions& options,
                                               std::size_t dim) {
  if (resolve_solver(options.kind, dim) == SolverKind::Sparse) {
    auto s = std::make_unique<AcSparseSolver>();
    s->set_ordering(options.ordering);
    s->set_partial_refactor(options.partial_refactor);
    return s;
  }
  return std::make_unique<DenseSolver<std::complex<double>>>();
}

std::unique_ptr<AcLinearSolver> make_ac_solver(SolverKind kind,
                                               std::size_t dim) {
  SolverOptions o;
  o.kind = kind;
  return make_ac_solver(o, dim);
}

} // namespace mss::spice
