// Cache-backed, cancellable, streaming execution of a RowExperiment over a
// ParamSpace — the one implementation of the sweep layer's first-occurrence
// memo (sweep::Runner evaluates every point and never memoises).
//
// Determinism contract (the Runner's RNG keying, tested against it
// row-for-row on all-distinct spaces): the point at flat index i draws
// from jump substream i, forked with label 0, of a base stream seeded with
// `seed`; repeated Point::key()s are evaluated once at their first
// occurrence and every duplicate serves that row. A persistent cache hit
// substitutes the stored row for the evaluation — bit-identical to it when
// that row came from the same (experiment id+version, seed) identity with
// the point at the same flat index (README, "Stochastic-experiment caveat").
//
// Execution proceeds in *stripes* of `stripe_chunks` points: per stripe,
// the first-occurrence points missing from the cache are evaluated in
// parallel over the shared thread pool, inserted into the cache (in index
// order, so the file layout is deterministic too), and then every row of
// the stripe is handed to the sink in index order. The cache owns every
// row; a run holds only RowRef handles into it (see cache.hpp, "Record
// ownership"). Cancellation is cooperative at stripe granularity: rows
// already streamed stay valid and cached, so a cancelled job resumes from
// the cache like a killed one.
//
// The stripe is also the *scheduling* quantum: StripedRun exposes the
// stripe loop one step() at a time, so the server's executor can
// round-robin several jobs without changing a single row — every stripe is
// self-contained (its RNG is a pure function of (seed, index)), so
// interleaving stripes of different jobs cannot reorder or perturb either
// job's rows relative to a solo run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "server/cache.hpp"
#include "sweep/experiment.hpp" // RunStats, PointStreams
#include "sweep/servable.hpp"

namespace mss::server {

struct ExecOptions {
  std::uint64_t seed = 0x5EEDC0DEull;
  /// Thread policy: 0 = shared global pool, 1 = serial, N = pool of N.
  std::size_t threads = 0;
  /// Points per stripe — the cancellation/streaming/cache-append quantum.
  std::size_t stripe_chunks = 8;
};

enum class ExecOutcome { Done, Cancelled };

/// Called after each stripe with the stats accumulated so far and the rows
/// of the run, decoded from the cache: `rows` has one slot per point, and
/// [0, done_end) are final ([done_begin, done_end) are new this stripe).
/// Return value ignored.
using StripeFn = std::function<void(const sweep::RunStats& so_far,
                                    const std::vector<std::vector<sweep::Value>>& rows,
                                    std::size_t done_end)>;

/// One job's striped execution state, advanced a stripe at a time — the
/// scheduler-facing core of run_cached(). The referenced experiment,
/// space and cache must outlive the run. Not thread-safe: one owner
/// advances it (the server's executor thread); readers synchronise
/// externally (the server copies row handles out under the job mutex
/// after each step).
class StripedRun {
 public:
  StripedRun(const sweep::RowExperiment& exp, const sweep::ParamSpace& space,
             const ExecOptions& opt, ResultCache& cache);

  /// Executes the next stripe: cache lookups, parallel evaluation of the
  /// misses, in-order cache inserts, duplicate handle copy-down. No-op
  /// once finished(). Throws what evaluate() throws (the run is then
  /// poisoned; callers treat the job as failed).
  void step();

  [[nodiscard]] bool finished() const { return next_ >= n_; }
  /// Rows completed so far: rows()[0, done_end()) are final handles into
  /// the cache (valid for its lifetime); later slots are null.
  [[nodiscard]] std::size_t done_end() const { return next_; }
  [[nodiscard]] const std::vector<RowRef>& rows() const { return rows_; }
  [[nodiscard]] const sweep::RunStats& stats() const { return stats_; }

 private:
  const sweep::RowExperiment& exp_;
  const sweep::ParamSpace& space_;
  ExecOptions opt_;
  ResultCache& cache_;

  sweep::PointStreams streams_;
  std::size_t n_;
  std::size_t stripe_;
  std::size_t next_ = 0; ///< first index of the next stripe

  std::vector<std::size_t> owner_;    ///< first occurrence of each key
  std::vector<std::string> key_of_;   ///< cache keys of first occurrences
  std::vector<std::size_t> pending_;  ///< scratch: this stripe's misses
  std::vector<Row> evaluated_;        ///< scratch: rows of pending_
  std::vector<RowRef> rows_;
  sweep::RunStats stats_;
};

/// Runs `exp` over `space` to completion (a loop over StripedRun::step).
/// `cache` may be null (a throwaway in-memory cache: pure memo
/// semantics); `cancel` may be null (never cancelled); `on_stripe` may be
/// empty. Returns Cancelled when the flag
/// was observed at a stripe boundary — `stats` then reflects the work
/// actually done.
ExecOutcome run_cached(const sweep::RowExperiment& exp,
                       const sweep::ParamSpace& space, const ExecOptions& opt,
                       ResultCache* cache, const std::atomic<bool>* cancel,
                       const StripeFn& on_stripe,
                       sweep::RunStats* stats = nullptr);

} // namespace mss::server
