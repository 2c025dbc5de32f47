#include "server/executor.hpp"

#include <stdexcept>
#include <string>
#include <unordered_map>

#include "util/parallel.hpp"

namespace mss::server {

StripedRun::StripedRun(const sweep::RowExperiment& exp,
                       const sweep::ParamSpace& space, const ExecOptions& opt,
                       ResultCache& cache)
    : exp_(exp),
      space_(space),
      opt_(opt),
      cache_(cache) {
  n_ = space_.size();
  stripe_ = opt_.stripe_chunks == 0 ? 1 : opt_.stripe_chunks;
  stats_.points = n_;
  rows_.resize(n_);
  if (n_ == 0) return;

  // First-occurrence scan (serial, no evaluation) — memo semantics. The
  // cache key is injective over Point::key() for a fixed (experiment,
  // version, seed), so it doubles as the memo key.
  std::unordered_map<std::string, std::size_t> first_of;
  owner_.resize(n_);
  key_of_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    std::string k =
        cache_key(exp_.id, exp_.version, opt_.seed, space_.at(i).key());
    const auto [it, inserted] = first_of.try_emplace(k, i);
    owner_[i] = it->second;
    if (inserted) key_of_[i] = std::move(k);
  }
}

void StripedRun::step() {
  if (finished()) return;
  const std::size_t begin = next_;
  const std::size_t end = std::min(n_, begin + stripe_);

  pending_.clear();
  for (std::size_t i = begin; i < end; ++i) {
    if (owner_[i] != i) continue; // duplicate: copied below
    if (const RowRef hit = cache_.lookup(key_of_[i])) {
      rows_[i] = hit;
      ++stats_.cache_hits;
      continue;
    }
    pending_.push_back(i);
  }

  // Evaluate the stripe's misses in parallel. A point's RNG is a pure
  // function of (seed, Point::key()) — never of its index, of which
  // points happen to be cached or of which other jobs' stripes ran in
  // between — so warm, cold and time-sliced runs all draw identically.
  evaluated_.clear();
  evaluated_.resize(pending_.size());
  util::ThreadPool::run_with(
      opt_.threads, pending_.size(), 1,
      [&](std::size_t, std::size_t b, std::size_t e) {
        for (std::size_t k = b; k < e; ++k) {
          const std::size_t i = pending_[k];
          const sweep::Point p = space_.at(i);
          util::Rng rng = sweep::point_rng(opt_.seed, p);
          Row row = exp_.evaluate(p, rng);
          if (row.size() != exp_.columns.size()) {
            throw std::logic_error(
                "RowExperiment '" + exp_.id + "' produced " +
                std::to_string(row.size()) + " cells for " +
                std::to_string(exp_.columns.size()) + " columns");
          }
          evaluated_[k] = std::move(row);
        }
      });
  stats_.evaluated += pending_.size();

  // Insert serially in index order: the file layout is then a
  // deterministic function of the job, not of thread scheduling.
  for (std::size_t k = 0; k < pending_.size(); ++k) {
    const std::size_t i = pending_[k];
    rows_[i] = cache_.insert(key_of_[i], evaluated_[k]);
  }

  for (std::size_t i = begin; i < end; ++i) {
    if (owner_[i] != i) {
      rows_[i] = rows_[owner_[i]];
      ++stats_.memo_hits;
    }
  }
  next_ = end;
}

ExecOutcome run_cached(const sweep::RowExperiment& exp,
                       const sweep::ParamSpace& space, const ExecOptions& opt,
                       ResultCache* cache, const std::atomic<bool>* cancel,
                       const StripeFn& on_stripe, sweep::RunStats* stats) {
  ResultCache throwaway("");
  StripedRun run(exp, space, opt, cache ? *cache : throwaway);
  std::vector<Row> rows(on_stripe ? space.size() : 0); // the sink's copy
  ExecOutcome outcome = ExecOutcome::Done;
  do { // an empty space reports once
    if (!run.finished() && cancel &&
        cancel->load(std::memory_order_relaxed)) {
      outcome = ExecOutcome::Cancelled;
      break;
    }
    const std::size_t done_begin = run.done_end();
    run.step();
    if (on_stripe) {
      for (std::size_t i = done_begin; i < run.done_end(); ++i) {
        rows[i] = run.rows()[i].decode();
      }
      on_stripe(run.stats(), rows, run.done_end());
    }
  } while (!run.finished());
  if (stats) *stats = run.stats();
  return outcome;
}

} // namespace mss::server
