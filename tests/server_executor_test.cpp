// server::run_cached vs sweep::Runner: bit-identical rows for every thread
// policy and stripe size, warm-cache reruns, memo duplicates (the executor
// is the one memo implementation), cooperative cancellation and stripe
// streaming, and the served-row guard: every registered experiment's rows
// over a small fixed space are pinned to its (id, version).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "magpie/scenario.hpp"
#include "magpie/workload.hpp"
#include "server/executor.hpp"
#include "server/registry.hpp"
#include "sweep/experiment.hpp"
#include "sweep/servable.hpp"

namespace {

using mss::server::ExecOptions;
using mss::server::ExecOutcome;
using mss::server::ResultCache;
using mss::server::run_cached;
using mss::sweep::Axis;
using mss::sweep::ParamSpace;
using mss::sweep::Point;
using mss::sweep::RunStats;
using mss::sweep::Value;

/// A stochastic row experiment: the RNG draws participate in the result,
/// so any deviation from the Runner's RNG keying shows up as a mismatch.
mss::sweep::RowExperiment noisy_experiment() {
  mss::sweep::RowExperiment exp;
  exp.id = "test.noisy";
  exp.version = 3;
  exp.columns = {"x", "draw", "label"};
  exp.evaluate = [](const Point& p, mss::util::Rng& rng) {
    const double x = p.number("x");
    return std::vector<Value>{Value(x), Value(x + rng.normal()),
                              Value("pt:" + p.key())};
  };
  return exp;
}

ParamSpace small_space() {
  ParamSpace s;
  s.cross(Axis::linear("x", 0.0, 1.0, 13))
      .cross(Axis::list("rep", std::vector<std::int64_t>{0, 1}));
  return s;
}

bool rows_bit_identical(const std::vector<std::vector<Value>>& a,
                        const std::vector<std::vector<Value>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (std::size_t c = 0; c < a[i].size(); ++c) {
      if (a[i][c].index() != b[i][c].index()) return false;
      if (std::holds_alternative<double>(a[i][c])) {
        const double da = std::get<double>(a[i][c]);
        const double db = std::get<double>(b[i][c]);
        if (std::memcmp(&da, &db, sizeof da) != 0) return false;
      } else if (a[i][c] != b[i][c]) {
        return false;
      }
    }
  }
  return true;
}

/// Collects rows via the stripe callback.
struct Sink {
  std::vector<std::vector<Value>> rows;
  RunStats last_stats;
  std::size_t calls = 0;
  mss::server::StripeFn fn() {
    return [this](const RunStats& st,
                  const std::vector<std::vector<Value>>& all,
                  std::size_t done_end) {
      EXPECT_GE(done_end, rows.size()); // monotone progress
      rows.assign(all.begin(), all.begin() + std::ptrdiff_t(done_end));
      last_stats = st;
      ++calls;
    };
  }
};

TEST(RunCached, MatchesRunnerBitIdenticallyAcrossPolicies) {
  const auto exp = noisy_experiment();
  const auto space = small_space();

  // Reference: the plain Runner, serial. Every key is distinct, so the
  // executor's memo never fires and the rows must match point for point.
  const auto runner_exp = mss::sweep::make_experiment(
      "ref", [&](const Point& p, mss::util::Rng& rng) {
        return exp.evaluate(p, rng);
      });
  const mss::sweep::Runner runner({.threads = 1, .seed = 77});
  const auto expected = runner.run(space, runner_exp);

  for (const std::size_t threads : {std::size_t(1), std::size_t(0),
                                    std::size_t(3)}) {
    for (const std::size_t stripe_chunks : {std::size_t(1), std::size_t(2),
                                            std::size_t(100)}) {
      ExecOptions opt;
      opt.seed = 77;
      opt.threads = threads;
      opt.stripe_chunks = stripe_chunks;
      Sink sink;
      RunStats stats;
      const auto outcome =
          run_cached(exp, space, opt, nullptr, nullptr, sink.fn(), &stats);
      EXPECT_EQ(outcome, ExecOutcome::Done);
      EXPECT_TRUE(rows_bit_identical(sink.rows, expected))
          << "threads=" << threads << " stripe=" << stripe_chunks;
      EXPECT_EQ(stats.points, space.size());
      EXPECT_EQ(stats.evaluated, space.size()); // all keys distinct
    }
  }
}

TEST(RunCached, WarmCacheRerunIsBitIdenticalWithZeroEvaluations) {
  const auto exp = noisy_experiment();
  const auto space = small_space();
  ExecOptions opt;
  opt.seed = 1234;
  ResultCache cache("");

  Sink cold;
  RunStats cold_stats;
  ASSERT_EQ(run_cached(exp, space, opt, &cache, nullptr, cold.fn(),
                       &cold_stats),
            ExecOutcome::Done);
  EXPECT_EQ(cold_stats.evaluated, space.size());
  EXPECT_EQ(cold_stats.cache_hits, 0u);

  Sink warm;
  RunStats warm_stats;
  ASSERT_EQ(run_cached(exp, space, opt, &cache, nullptr, warm.fn(),
                       &warm_stats),
            ExecOutcome::Done);
  EXPECT_EQ(warm_stats.evaluated, 0u);
  EXPECT_EQ(warm_stats.cache_hits, space.size());
  EXPECT_TRUE(rows_bit_identical(warm.rows, cold.rows));
}

TEST(RunCached, CacheKeysOnSeedAndVersion) {
  const auto exp = noisy_experiment();
  const auto space = small_space();
  ResultCache cache("");

  ExecOptions opt;
  opt.seed = 1;
  RunStats first;
  ASSERT_EQ(run_cached(exp, space, opt, &cache, nullptr, nullptr, &first),
            ExecOutcome::Done);

  // A different seed must not reuse the rows.
  opt.seed = 2;
  RunStats other_seed;
  ASSERT_EQ(run_cached(exp, space, opt, &cache, nullptr, nullptr,
                       &other_seed),
            ExecOutcome::Done);
  EXPECT_EQ(other_seed.cache_hits, 0u);
  EXPECT_EQ(other_seed.evaluated, space.size());

  // A bumped experiment version must not either.
  auto bumped = noisy_experiment();
  bumped.version = 4;
  opt.seed = 1;
  RunStats other_version;
  ASSERT_EQ(run_cached(bumped, space, opt, &cache, nullptr, nullptr,
                       &other_version),
            ExecOutcome::Done);
  EXPECT_EQ(other_version.cache_hits, 0u);
}

TEST(RunCached, DuplicatePointsAreMemoisedNotReevaluated) {
  mss::sweep::RowExperiment exp;
  exp.id = "test.dup";
  exp.columns = {"v"};
  std::atomic<std::size_t> evals{0};
  exp.evaluate = [&](const Point& p, mss::util::Rng&) {
    evals.fetch_add(1);
    return std::vector<Value>{Value(p.number("x") * 2)};
  };

  ParamSpace space;
  space.cross(Axis::list("x", std::vector<double>{1.0, 2.0, 1.0, 1.0, 2.0}));

  ExecOptions opt;
  opt.threads = 1;
  ResultCache cache("");
  Sink sink;
  RunStats stats;
  ASSERT_EQ(run_cached(exp, space, opt, &cache, nullptr, sink.fn(), &stats),
            ExecOutcome::Done);
  EXPECT_EQ(evals.load(), 2u);
  EXPECT_EQ(stats.evaluated, 2u);
  EXPECT_EQ(stats.memo_hits, 3u);
  EXPECT_EQ(cache.entries(), 2u); // only distinct keys are stored
  ASSERT_EQ(sink.rows.size(), 5u);
  EXPECT_EQ(std::get<double>(sink.rows[2][0]), 2.0);
  EXPECT_EQ(std::get<double>(sink.rows[4][0]), 4.0);
}

// A stochastic duplicate serves its first occurrence's row — drawn at the
// first occurrence's RNG position — even when it lands in a later stripe
// than its owner, with a caller's cache and with the throwaway one alike.
TEST(RunCached, StochasticDuplicatesInLaterStripesServeTheOwnerRow) {
  const auto exp = noisy_experiment();
  ParamSpace space;
  space.cross(Axis::list(
      "x", std::vector<double>{0.1, 0.2, 0.3, 0.1, 0.4, 0.2, 0.1}));
  const std::vector<std::size_t> owner = {0, 1, 2, 0, 4, 1, 0};

  // The plain Runner draws every point at its own RNG position.
  const auto runner_exp = mss::sweep::make_experiment(
      "ref", [&](const Point& p, mss::util::Rng& rng) {
        return exp.evaluate(p, rng);
      });
  const auto unmemoised =
      mss::sweep::Runner({.threads = 1, .seed = 5}).run(space, runner_exp);

  for (const bool with_cache : {false, true}) {
    ExecOptions opt;
    opt.seed = 5;
    opt.stripe_chunks = 1; // one point per stripe
    ResultCache cache("");
    Sink sink;
    RunStats stats;
    ASSERT_EQ(run_cached(exp, space, opt, with_cache ? &cache : nullptr,
                         nullptr, sink.fn(), &stats),
              ExecOutcome::Done);
    EXPECT_EQ(stats.evaluated, 4u);
    EXPECT_EQ(stats.memo_hits, 3u);
    EXPECT_EQ(cache.entries(), with_cache ? 4u : 0u);
    ASSERT_EQ(sink.rows.size(), space.size());
    for (std::size_t i = 0; i < space.size(); ++i) {
      EXPECT_TRUE(rows_bit_identical({sink.rows[i]}, {unmemoised[owner[i]]}))
          << "point " << i << " cache=" << with_cache;
      if (owner[i] != i) { // a re-sampled duplicate would differ
        EXPECT_FALSE(rows_bit_identical({sink.rows[i]}, {unmemoised[i]}));
      }
    }
  }
}

TEST(RunCached, PresetCancelStopsBeforeAnyEvaluation) {
  auto exp = noisy_experiment();
  const auto space = small_space();
  std::atomic<bool> cancel{true};
  RunStats stats;
  const auto outcome = run_cached(exp, space, ExecOptions{}, nullptr,
                                  &cancel, nullptr, &stats);
  EXPECT_EQ(outcome, ExecOutcome::Cancelled);
  EXPECT_EQ(stats.evaluated, 0u);
}

TEST(RunCached, MidRunCancelKeepsCompletedStripesCached) {
  const auto exp = noisy_experiment();
  const auto space = small_space(); // 26 points
  ResultCache cache("");
  std::atomic<bool> cancel{false};

  ExecOptions opt;
  opt.threads = 1;
  opt.stripe_chunks = 4; // stripes of 4 points
  RunStats stats;
  std::size_t seen = 0;
  const auto outcome = run_cached(
      exp, space, opt, &cache, &cancel,
      [&](const RunStats&, const std::vector<std::vector<Value>>&,
          std::size_t done_end) {
        seen = done_end;
        if (done_end >= 8) cancel.store(true); // cancel after two stripes
      },
      &stats);
  EXPECT_EQ(outcome, ExecOutcome::Cancelled);
  EXPECT_GE(seen, 8u);
  EXPECT_LT(seen, space.size());
  EXPECT_EQ(cache.entries(), stats.evaluated);

  // Resume: the cached stripes are hits, the rest evaluates, and the rows
  // equal an uncached cold run bit for bit.
  Sink resumed;
  RunStats resumed_stats;
  cancel.store(false);
  ASSERT_EQ(run_cached(exp, space, opt, &cache, &cancel, resumed.fn(),
                       &resumed_stats),
            ExecOutcome::Done);
  EXPECT_EQ(resumed_stats.cache_hits, stats.evaluated);
  EXPECT_EQ(resumed_stats.evaluated, space.size() - stats.evaluated);

  Sink cold;
  ASSERT_EQ(run_cached(exp, space, opt, nullptr, nullptr, cold.fn(), nullptr),
            ExecOutcome::Done);
  EXPECT_TRUE(rows_bit_identical(resumed.rows, cold.rows));
}

TEST(RunCached, WrongRowArityIsAnError) {
  mss::sweep::RowExperiment exp;
  exp.id = "test.bad";
  exp.columns = {"a", "b"};
  exp.evaluate = [](const Point&, mss::util::Rng&) {
    return std::vector<Value>{Value(1.0)}; // one cell, two columns
  };
  ParamSpace space;
  space.cross(Axis::list("x", std::vector<std::int64_t>{1}));
  ExecOptions opt;
  opt.threads = 1;
  EXPECT_THROW(run_cached(exp, space, opt, nullptr, nullptr, nullptr),
               std::logic_error);
}

TEST(RunCached, EmptySpaceCompletesImmediately) {
  const auto exp = noisy_experiment();
  ParamSpace space;
  space.cross(Axis::list("x", std::vector<double>{})); // zero points
  RunStats stats;
  EXPECT_EQ(run_cached(exp, space, ExecOptions{}, nullptr, nullptr, nullptr,
                       &stats),
            ExecOutcome::Done);
  EXPECT_EQ(stats.points, 0u);
}

// ---------------------------------------------------------------------------
// Served-row guard
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a, chained through `h`.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// What a served experiment's rows over a fixed space hash to.
struct ServedPin {
  const char* id;
  std::uint32_t version;
  std::size_t rows;
  std::uint64_t cells_fnv1a;
};

/// The small fixed space each registered experiment is pinned over.
ParamSpace pin_space(const std::string& id) {
  ParamSpace space;
  if (id == "demo.mc_tail") {
    space.cross(Axis::list("samples", std::vector<std::int64_t>{100, 300}))
        .cross(Axis::linear("threshold", 0.5, 2.5, 3));
  } else if (id == "nvsim.explore") {
    space.zip({Axis::list("mats", std::vector<std::int64_t>{1, 2, 4, 4}),
               Axis::list("rows", std::vector<std::int64_t>{512, 256, 128,
                                                            256})});
  } else if (id == "magpie.scenario") {
    // One kernel on the four scenario platforms, not the 36-point default.
    space = mss::magpie::scenario_space({mss::magpie::parsec_kernels()[0]});
  }
  return space;
}

// A served row is cached under (experiment id, version, seed, point), so a
// change that moves any row of a registered experiment must bump that
// experiment's version — or a restarted daemon serves the old binary's
// rows next to the new one's. Each pin hashes the canonical cell encoding
// (`RowRef::cells()`, the bytes the cache stores and fetches stream).
TEST(ServedRows, PinnedToExperimentVersion) {
  constexpr std::array<ServedPin, 3> kPins = {{
      {"demo.mc_tail", 1, 6, 0xed9adcbeff9822b0ull},
      {"nvsim.explore", 1, 4, 0xd5e17bb8b4a177bfull},
      {"magpie.scenario", 1, 4, 0x35bf3eae7497405aull},
  }};
  const auto registry = mss::server::Registry::builtin();
  ASSERT_EQ(registry.all().size(), kPins.size())
      << "a servable was added or removed: pin it here";
  for (const ServedPin& pin : kPins) {
    const auto* exp = registry.find(pin.id);
    ASSERT_NE(exp, nullptr) << pin.id;
    const ParamSpace space = pin_space(pin.id);
    Sink sink;
    ASSERT_EQ(run_cached(*exp, space, ExecOptions{}, nullptr, nullptr,
                         sink.fn()),
              ExecOutcome::Done);
    // Re-store each decoded row to read its canonical cell bytes.
    ResultCache encoded("");
    std::uint64_t h = fnv1a({});
    for (std::size_t i = 0; i < sink.rows.size(); ++i) {
      h = fnv1a(encoded.insert(std::to_string(i), sink.rows[i]).cells(), h);
    }
    EXPECT_TRUE(exp->version == pin.version && sink.rows.size() == pin.rows &&
                h == pin.cells_fnv1a)
        << pin.id << " v" << exp->version << " served " << sink.rows.size()
        << " rows hashing to 0x" << std::hex << h << " (pinned v" << std::dec
        << pin.version << ", " << pin.rows << " rows, 0x" << std::hex
        << pin.cells_fnv1a << "): its served rows changed -- bump its "
        << "version, then re-pin";
  }
}

} // namespace
