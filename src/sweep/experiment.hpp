// Declarative experiments over a ParamSpace, executed by a deterministic
// parallel Runner.
//
// An Experiment<Result> is a named, pure evaluation: given a Point (and a
// per-point RNG stream for stochastic models), produce a Result. The
// Runner spreads the space's flat index range over the PR-1 thread pool
// one point at a time and writes each result into its point-indexed slot,
// so the output vector is bit-identical for any thread count.
//
// Determinism contract: a point draws from point_rng(seed, point), a
// stream keyed on the point's own Point::key() — never on its flat index,
// the thread count or the other points of the space. Equal keys draw
// equally in any space and any run, so a row is a pure function of
// (seed, Point::key()), the identity the server's result cache stores it
// under. point_rng is the one implementation of this keying;
// server::StripedRun shares it.
//
// The Runner evaluates every point, repeated ones included. Memoising
// repeated Point::key()s is the server executor's job
// (server::StripedRun), the one implementation of it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sweep/param_space.hpp"
#include "sweep/result_table.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mss::sweep {

/// A declarative unit of work: evaluate one Point into a Result. Results
/// must be default-constructible (the Runner pre-sizes the output vector).
template <typename Result>
struct Experiment {
  std::string name;
  std::function<Result(const Point&, util::Rng&)> evaluate;
};

/// Deduces the Result type from the callable.
template <typename Fn>
[[nodiscard]] auto make_experiment(std::string name, Fn fn) {
  using Result = decltype(fn(std::declval<const Point&>(),
                             std::declval<util::Rng&>()));
  return Experiment<Result>{std::move(name), std::move(fn)};
}

/// Execution knobs.
struct RunOptions {
  /// Thread policy shared with every parallel kernel: 0 = the shared
  /// global pool, 1 = serial inline, N = a shared pool of N threads.
  std::size_t threads = 0;
  /// Seed of the per-point RNG streams (point_rng).
  std::uint64_t seed = 0x5EEDC0DEull;
};

/// The RNG of `point` in a run seeded with `seed`: the one keying of the
/// determinism contract. The label is FNV-1a 64 of the key bytes; fork()
/// maps distinct labels to distinct streams. Changing the hash moves every
/// stochastic row, so it obliges every stochastic experiment's version bump.
[[nodiscard]] inline util::Rng point_rng(std::uint64_t seed,
                                         const Point& point) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : point.key()) h = (h ^ c) * 0x100000001b3ull;
  return util::Rng(seed).fork(h);
}

/// What a memoised, cached run did. Only server::run_cached (and the
/// server's StripedRun behind it) fills it; the Runner keeps no stats.
struct RunStats {
  std::size_t points = 0;     ///< space size
  std::size_t evaluated = 0;  ///< evaluate() calls actually made
  std::size_t memo_hits = 0;  ///< points served from a repeated key
  std::size_t cache_hits = 0; ///< points served from the result cache
};

/// Executes experiments over spaces. Stateless apart from its options, so
/// one Runner can serve many runs.
class Runner {
 public:
  Runner() = default;
  explicit Runner(RunOptions opt) : opt_(opt) {}

  [[nodiscard]] const RunOptions& options() const { return opt_; }

  /// Evaluates `exp` at every point of `space`; result i corresponds to
  /// `space.at(i)`. Bit-identical for any `threads` setting.
  template <typename Result>
  [[nodiscard]] std::vector<Result> run(const ParamSpace& space,
                                        const Experiment<Result>& exp) const {
    const std::size_t n = space.size();
    std::vector<Result> results(n);
    if (n == 0) return results;

    util::ThreadPool::run_with(
        opt_.threads, n, 1,
        [&](std::size_t, std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) {
            const Point p = space.at(i);
            util::Rng rng = point_rng(opt_.seed, p);
            results[i] = exp.evaluate(p, rng);
          }
        });
    return results;
  }

  /// run() + row assembly: `row_of(point, result)` produces the cells of
  /// each table row, in space order.
  template <typename Result, typename RowFn>
  [[nodiscard]] ResultTable table(const ParamSpace& space,
                                  const Experiment<Result>& exp,
                                  std::vector<std::string> columns,
                                  RowFn row_of) const {
    const auto results = run(space, exp);
    ResultTable t(std::move(columns));
    for (std::size_t i = 0; i < results.size(); ++i) {
      t.add_row(row_of(space.at(i), results[i]));
    }
    return t;
  }

 private:
  RunOptions opt_;
};

} // namespace mss::sweep
