#include "spice/sparse.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace mss::spice {

namespace detail {

std::uint64_t next_stamp_epoch() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

} // namespace detail

namespace {

/// Symmetrised, deduplicated adjacency (diagonal excluded) of a CSC
/// pattern, in compact CSR form — the graph RCM walks. adj[ptr[v] .. ptr[v] + deg[v]) are the sorted neighbours of v.
struct SymAdjacency {
  std::vector<std::uint32_t> ptr;
  std::vector<std::uint32_t> adj;
  std::vector<std::uint32_t> deg;
};

[[nodiscard]] SymAdjacency symmetrized_adjacency(
    std::size_t dim, const std::vector<std::uint32_t>& col_ptr,
    const std::vector<std::uint32_t>& row_ind) {
  if (col_ptr.size() != dim + 1) {
    throw std::invalid_argument("sparse ordering: bad column pointer array");
  }
  const auto n = static_cast<std::uint32_t>(dim);
  SymAdjacency out;
  out.deg.assign(dim, 0);
  for (std::uint32_t c = 0; c < n; ++c) {
    for (std::uint32_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
      const std::uint32_t r = row_ind[p];
      if (r == c) continue;
      ++out.deg[r];
      ++out.deg[c];
    }
  }
  out.ptr.assign(dim + 1, 0);
  for (std::size_t v = 0; v < dim; ++v) {
    out.ptr[v + 1] = out.ptr[v] + out.deg[v];
  }
  out.adj.resize(out.ptr[dim]);
  {
    std::vector<std::uint32_t> fill = out.ptr;
    for (std::uint32_t c = 0; c < n; ++c) {
      for (std::uint32_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
        const std::uint32_t r = row_ind[p];
        if (r == c) continue;
        out.adj[fill[r]++] = c;
        out.adj[fill[c]++] = r;
      }
    }
  }
  for (std::size_t v = 0; v < dim; ++v) {
    const auto b = out.adj.begin() + out.ptr[v];
    const auto e = out.adj.begin() + out.ptr[v] + out.deg[v];
    std::sort(b, e);
    const auto last = std::unique(b, e);
    out.deg[v] = static_cast<std::uint32_t>(last - b);
  }
  return out;
}

} // namespace

// ---------------------------------------------------------------------------
// Reverse-Cuthill-McKee ordering
// ---------------------------------------------------------------------------

std::vector<std::uint32_t> rcm_order(std::size_t dim,
                                     const std::vector<std::uint32_t>& col_ptr,
                                     const std::vector<std::uint32_t>& row_ind) {
  const SymAdjacency g = symmetrized_adjacency(dim, col_ptr, row_ind);
  const auto n = static_cast<std::uint32_t>(dim);

  std::vector<std::uint8_t> visited(dim, 0);
  std::vector<std::uint32_t> order;
  order.reserve(dim);
  std::vector<std::uint32_t> frontier, next;

  // Plain BFS used both for the pseudo-peripheral search and the CM sweep.
  const auto bfs = [&](std::uint32_t seed, bool record) -> std::uint32_t {
    std::vector<std::uint8_t> seen(dim, 0);
    seen[seed] = 1;
    frontier.assign(1, seed);
    std::uint32_t last_min_deg = seed;
    while (!frontier.empty()) {
      next.clear();
      for (const std::uint32_t v : frontier) {
        if (record) order.push_back(v);
        // Neighbours in ascending-degree order — the Cuthill-McKee rule.
        const std::uint32_t b = g.ptr[v];
        std::vector<std::uint32_t> nbrs(g.adj.begin() + b,
                                        g.adj.begin() + b + g.deg[v]);
        std::sort(nbrs.begin(), nbrs.end(),
                  [&](std::uint32_t x, std::uint32_t y) {
                    return g.deg[x] != g.deg[y] ? g.deg[x] < g.deg[y] : x < y;
                  });
        for (const std::uint32_t w : nbrs) {
          if (!seen[w]) {
            seen[w] = 1;
            next.push_back(w);
          }
        }
      }
      if (!next.empty()) {
        last_min_deg = *std::min_element(
            next.begin(), next.end(), [&](std::uint32_t x, std::uint32_t y) {
              return g.deg[x] != g.deg[y] ? g.deg[x] < g.deg[y] : x < y;
            });
      }
      frontier.swap(next);
    }
    if (record) {
      for (const std::uint32_t v : order) visited[v] = 1;
    }
    return last_min_deg;
  };

  for (std::uint32_t v0 = 0; v0 < n; ++v0) {
    if (visited[v0]) continue;
    // Pseudo-peripheral seed: two BFS hops towards an eccentric vertex.
    std::uint32_t seed = v0;
    seed = bfs(seed, /*record=*/false);
    seed = bfs(seed, /*record=*/false);
    bfs(seed, /*record=*/true);
  }
  std::reverse(order.begin(), order.end());
  return order;
}

// ---------------------------------------------------------------------------
// SparseSolver
// ---------------------------------------------------------------------------

namespace {

/// Threshold of the partial pivoting: the diagonal stays the pivot while
/// its magnitude is >= kPivotTol * (column max). 1.0 would be exact
/// partial pivoting; smaller values favour the ordering's sparsity.
constexpr double kPivotTol = 0.1;

[[nodiscard]] std::uint64_t position_key(std::size_t i, std::size_t j) {
  return (static_cast<std::uint64_t>(i) << 32) | static_cast<std::uint64_t>(j);
}

} // namespace

void SparseSolver::begin(std::size_t dim) {
  if (dim != dim_) {
    dim_ = dim;
    slot_of_.clear();
    slot_row_.clear();
    slot_col_.clear();
    vals_.clear();
    pattern_dirty_ = true;
    factor_valid_ = false;
    epoch_ = detail::next_stamp_epoch(); // outstanding handles are void
  }
  std::fill(vals_.begin(), vals_.end(), 0.0);
}

std::uint32_t SparseSolver::slot(std::size_t i, std::size_t j) {
  const auto [it, inserted] = slot_of_.try_emplace(
      position_key(i, j), static_cast<std::uint32_t>(slot_row_.size()));
  if (inserted) {
    slot_row_.push_back(static_cast<std::uint32_t>(i));
    slot_col_.push_back(static_cast<std::uint32_t>(j));
    vals_.push_back(0.0);
    pattern_dirty_ = true;
  }
  return it->second;
}

double SparseSolver::value(std::size_t i, std::size_t j) const {
  const auto it = slot_of_.find(position_key(i, j));
  return it == slot_of_.end() ? 0.0 : vals_[it->second];
}

void SparseSolver::rebuild_symbolic() {
  const std::size_t nnz = slot_row_.size();
  // Sort slots by (col, row) to obtain the CSC layout and the slot -> CSC
  // scatter map used by every later gather.
  std::vector<std::uint32_t> perm(nnz);
  std::iota(perm.begin(), perm.end(), 0u);
  std::sort(perm.begin(), perm.end(), [&](std::uint32_t a, std::uint32_t b) {
    return slot_col_[a] != slot_col_[b] ? slot_col_[a] < slot_col_[b]
                                        : slot_row_[a] < slot_row_[b];
  });
  col_ptr_.assign(dim_ + 1, 0);
  for (std::size_t s = 0; s < nnz; ++s) ++col_ptr_[slot_col_[s] + 1];
  for (std::size_t c = 0; c < dim_; ++c) col_ptr_[c + 1] += col_ptr_[c];
  row_ind_.resize(nnz);
  csc_of_slot_.resize(nnz);
  for (std::size_t k = 0; k < nnz; ++k) {
    const std::uint32_t s = perm[k];
    row_ind_[k] = slot_row_[s];
    csc_of_slot_[s] = static_cast<std::uint32_t>(k);
  }

  q_ = rcm_order(dim_, col_ptr_, row_ind_);
  qpos_.resize(dim_);
  for (std::uint32_t k = 0; k < dim_; ++k) qpos_[q_[k]] = k;

  csc_vals_.assign(nnz, 0.0);
  cached_vals_.assign(nnz, 0.0);
  work_.assign(dim_, 0.0);
  mark_.assign(dim_, 0);
  pinv_.assign(dim_, -1);
  prow_.assign(dim_, 0);
  diag_.assign(dim_, 0.0);
  sol_.assign(dim_, 0.0);
  heap_.clear();
  candidates_.clear();
  pattern_dirty_ = false;
  factor_valid_ = false;
}

bool SparseSolver::eliminate(std::size_t k, std::uint32_t& pr, double& piv) {
  const std::uint32_t col = q_[k];
  const auto kb = static_cast<std::int32_t>(k);
  // Rows pivoted before k feed the update; every other row — not pivoted
  // yet, or pivoted at or after k by the stored factorization a replay
  // checks against — is a pivot candidate, as it was when k was factored.
  const auto earlier = [&](std::uint32_t r) {
    return pinv_[r] >= 0 && pinv_[r] < kb;
  };
  const auto heap_cmp = std::greater<std::uint32_t>();
  const auto touch = [&](std::uint32_t r) {
    mark_[r] = 1;
    touched_.push_back(r);
    if (earlier(r)) {
      heap_.push_back(static_cast<std::uint32_t>(pinv_[r]));
      std::push_heap(heap_.begin(), heap_.end(), heap_cmp);
    } else {
      candidates_.push_back(r);
    }
  };
  heap_.clear();
  candidates_.clear();
  touched_.clear();

  // Scatter A(:, col). The assembled pattern has unique positions, so a
  // plain store per row suffices.
  for (std::uint32_t p = col_ptr_[col]; p < col_ptr_[col + 1]; ++p) {
    work_[row_ind_[p]] = csc_vals_[p];
    touch(row_ind_[p]);
  }

  // Left-looking update: apply earlier pivot columns in ascending pivot
  // order. Fill introduced by column t is always a later pivot or a
  // candidate, so the min-heap pops monotonically and each pivot is pushed
  // at most once (rows are marked on first touch).
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), heap_cmp);
    const std::uint32_t t = heap_.back();
    heap_.pop_back();
    const double ut = work_[prow_[t]];
    if (ut == 0.0) continue; // exact numeric zero: no U entry, no update
    u_rows_.push_back(t);
    u_vals_.push_back(ut);
    for (std::uint32_t p = l_ptr_[t]; p < l_ptr_[t + 1]; ++p) {
      const std::uint32_t r = l_rows_[p];
      const double delta = l_vals_[p] * ut;
      if (mark_[r]) {
        work_[r] -= delta;
      } else {
        work_[r] = -delta;
        touch(r);
      }
    }
  }

  // Threshold partial pivoting among the candidates; the diagonal row wins
  // when within kPivotTol of the column maximum (keeps the ordering's
  // structure), otherwise the max-magnitude row (handles the zero-diagonal
  // branch rows of voltage sources).
  double best = 0.0;
  bool have = false;
  for (const std::uint32_t r : candidates_) {
    const double m = std::abs(work_[r]);
    if (!have || m > best) {
      best = m;
      pr = r;
      have = true;
    }
  }
  const bool singular = !have || best < 1e-300;
  if (!singular) {
    if (mark_[col] && !earlier(col)) {
      const double dmag = std::abs(work_[col]);
      if (dmag > 0.0 && dmag >= kPivotTol * best) pr = col;
    }
    piv = work_[pr];
    // L: candidates in insertion order, exact zeros dropped.
    for (const std::uint32_t r : candidates_) {
      if (r == pr) continue;
      const double lv = work_[r] / piv;
      if (lv == 0.0) continue;
      l_rows_.push_back(r);
      l_vals_.push_back(lv);
    }
  }
  for (const std::uint32_t r : touched_) {
    mark_[r] = 0;
    work_[r] = 0.0;
  }
  return !singular;
}

bool SparseSolver::factor(std::size_t start) {
  const std::size_t n = dim_;
  if (start == 0) {
    l_ptr_.assign(1, 0);
    l_rows_.clear();
    l_vals_.clear();
    u_ptr_.assign(1, 0);
    u_rows_.clear();
    u_vals_.clear();
    std::fill(pinv_.begin(), pinv_.end(), -1);
  } else {
    // Keep the factored prefix [0, start); free the pivot assignments of
    // the recomputed suffix (prow_ is complete — restarts only run on top
    // of a full valid factorization).
    for (std::size_t k = start; k < n; ++k) pinv_[prow_[k]] = -1;
    l_rows_.resize(l_ptr_[start]);
    l_vals_.resize(l_ptr_[start]);
    l_ptr_.resize(start + 1);
    u_rows_.resize(u_ptr_[start]);
    u_vals_.resize(u_ptr_[start]);
    u_ptr_.resize(start + 1);
  }
  last_factor_start_ = start;
  factor_cols_total_ += n - start;

  for (std::size_t k = start; k < n; ++k) {
    std::uint32_t pr = 0;
    double piv = 0.0;
    if (!eliminate(k, pr, piv)) return false;
    pinv_[pr] = static_cast<std::int32_t>(k);
    prow_[k] = pr;
    diag_[k] = piv;
    u_ptr_.push_back(static_cast<std::uint32_t>(u_rows_.size()));
    l_ptr_.push_back(static_cast<std::uint32_t>(l_rows_.size()));
  }
  return true;
}

bool SparseSolver::refactor(std::size_t first_dirty) {
  bool ok = true;
  for (std::size_t k = first_dirty; k < dim_; ++k) {
    // A clean column whose stored U references a dirty earlier pivot sees
    // different updates, so it is dirty too; every other clean column
    // keeps its stored L/U column. Earlier flags are final by now.
    for (std::uint32_t p = u_ptr_[k]; p < u_ptr_[k + 1] && !dirty_pos_[k];
         ++p) {
      dirty_pos_[k] = dirty_pos_[u_rows_[p]];
    }
    if (!dirty_pos_[k]) continue;
    // The replay commits in place only when it lands on the stored
    // structure: same pivot row, same U and L row sequences (the static
    // pattern keeps per-column storage offsets stable). Its column is
    // appended past the stored factors and truncated again.
    const std::size_t ue = u_rows_.size();
    const std::size_t le = l_rows_.size();
    std::uint32_t pr = 0;
    double piv = 0.0;
    const bool same =
        eliminate(k, pr, piv) && pr == prow_[k] &&
        std::equal(u_rows_.begin() + ue, u_rows_.end(),
                   u_rows_.begin() + u_ptr_[k],
                   u_rows_.begin() + u_ptr_[k + 1]) &&
        std::equal(l_rows_.begin() + le, l_rows_.end(),
                   l_rows_.begin() + l_ptr_[k],
                   l_rows_.begin() + l_ptr_[k + 1]);
    if (same) {
      diag_[k] = piv;
      std::copy(u_vals_.begin() + ue, u_vals_.end(),
                u_vals_.begin() + u_ptr_[k]);
      std::copy(l_vals_.begin() + le, l_vals_.end(),
                l_vals_.begin() + l_ptr_[k]);
    }
    u_rows_.resize(ue);
    u_vals_.resize(ue);
    l_rows_.resize(le);
    l_vals_.resize(le);
    if (!same) {
      // Values drifted past a pivot choice, a pattern row or an exact-zero
      // drop: recompute the suffix from here.
      ok = factor(k);
      break;
    }
    ++factor_cols_total_;
    ++scattered_cols_total_;
  }
  last_factor_start_ = first_dirty;
  return ok;
}

bool SparseSolver::solve(const std::vector<double>& b, std::vector<double>& x) {
  if (b.size() != dim_) {
    throw std::invalid_argument("SparseSolver: rhs dimension mismatch");
  }
  if (pattern_dirty_) rebuild_symbolic();

  // Gather the slot-ordered accumulation into CSC order. Slots not stamped
  // in this pass hold zero, which keeps the pattern stable across passes.
  for (std::size_t s = 0; s < csc_of_slot_.size(); ++s) {
    csc_vals_[csc_of_slot_[s]] = vals_[s];
  }

  // Dirty scan, column-wise: mark every pivot position whose A column
  // changed and find the first one (dim_ when nothing changed).
  std::size_t first_dirty = 0;
  if (factor_valid_) {
    first_dirty = dim_;
    dirty_pos_.assign(dim_, 0);
    for (std::size_t c = 0; c < dim_; ++c) {
      for (std::uint32_t p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
        if (csc_vals_[p] != cached_vals_[p]) {
          dirty_pos_[qpos_[c]] = 1;
          first_dirty = std::min<std::size_t>(first_dirty, qpos_[c]);
          break;
        }
      }
    }
  }

  if (!factor_valid_ || first_dirty < dim_) {
    const bool replay = factor_valid_ && partial_;
    factor_valid_ = false;
    if (!(replay ? refactor(first_dirty) : factor(0))) return false;
    cached_vals_ = csc_vals_;
    factor_valid_ = true;
    ++factor_count_;
  }

  const std::size_t n = dim_;
  x = b;
  // Forward solve through unit-diagonal L: columns in pivot order only ever
  // update rows with later pivot order.
  for (std::size_t t = 0; t < n; ++t) {
    const double ct = x[prow_[t]];
    if (ct == 0.0) continue;
    for (std::uint32_t p = l_ptr_[t]; p < l_ptr_[t + 1]; ++p) {
      x[l_rows_[p]] -= l_vals_[p] * ct;
    }
  }
  // Column-sweep back substitution through U.
  for (std::size_t k = n; k-- > 0;) {
    const double w = x[prow_[k]] / diag_[k];
    sol_[k] = w;
    if (w == 0.0) continue;
    for (std::uint32_t p = u_ptr_[k]; p < u_ptr_[k + 1]; ++p) {
      x[prow_[u_rows_[p]]] -= u_vals_[p] * w;
    }
  }
  // Undo the column permutation: position q_[k] of the solution is sol_[k].
  for (std::size_t k = 0; k < n; ++k) x[q_[k]] = sol_[k];
  return true;
}

} // namespace mss::spice
