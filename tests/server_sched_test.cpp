// The executor's round-robin stripe scheduler: fairness between
// equal-priority jobs (a small job streams and finishes while a big one
// is mid-flight), strict priority preemption at stripe boundaries (both
// ordered by construction through a gated experiment, not by timing),
// slice accounting, bit-identity of interleaved runs against solo runs
// at several {threads} x {stripe} combinations, re-fetching a finished
// job from the cache-owned rows, and the connection-lifecycle regression
// tests (fd leak, connection-table GC).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "server/client.hpp"
#include "server/registry.hpp"
#include "server/server.hpp"

namespace {

using namespace mss::server;
using mss::sweep::Axis;
using mss::sweep::ParamSpace;
using mss::sweep::Value;

std::string temp_name(const char* suffix) {
  static int counter = 0;
  return testing::TempDir() + "mss_sched_" + std::to_string(::getpid()) +
         "_" + std::to_string(counter++) + suffix;
}

/// All-distinct points; evaluation cost scales with `samples`.
ParamSpace demo_space(std::int64_t samples, std::size_t n_thresholds) {
  ParamSpace s;
  s.cross(Axis::list("samples", std::vector<std::int64_t>{samples}))
      .cross(Axis::linear("threshold", 0.5, 2.5, n_thresholds));
  return s;
}

struct TestServer {
  std::string socket_path = temp_name(".sock");
  std::unique_ptr<Server> server;

  explicit TestServer(std::size_t threads = 1, std::size_t stripe_chunks = 2,
                      Registry registry = Registry::builtin()) {
    ServerOptions opt;
    opt.socket_path = socket_path;
    opt.threads = threads;
    opt.stripe_chunks = stripe_chunks;
    server = std::make_unique<Server>(opt, std::move(registry));
    server->start();
  }
  ~TestServer() {
    if (server) {
      server->request_stop();
      server->wait();
    }
    std::remove(socket_path.c_str());
  }
};

/// Holds every evaluation of the "test.gated" experiment until open(), and
/// logs each evaluated point's `samples` value in evaluation order. A test
/// submits its jobs (Submit replies only after the queue push), opens the
/// gate, and reads the executor's order off the log — no timing involved.
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool opened = false;
  std::vector<std::int64_t> log;

  void open() {
    {
      std::lock_guard<std::mutex> lock(m);
      opened = true;
    }
    cv.notify_all();
  }
  std::vector<std::int64_t> evaluated() {
    std::lock_guard<std::mutex> lock(m);
    return log;
  }
};

/// The builtin registry plus "test.gated": demo.mc_tail's rows behind `gate`.
Registry gated_registry(const std::shared_ptr<Gate>& gate) {
  Registry reg = Registry::builtin();
  auto exp = demo_mc_tail_experiment();
  exp.id = "test.gated";
  exp.evaluate = [gate, inner = exp.evaluate](const mss::sweep::Point& p,
                                               mss::util::Rng& rng) {
    {
      std::unique_lock<std::mutex> lock(gate->m);
      gate->cv.wait(lock, [&] { return gate->opened; });
      gate->log.push_back(p.integer("samples"));
    }
    return inner(p, rng);
  };
  reg.add(std::move(exp));
  return reg;
}

bool tables_bit_identical(const mss::sweep::ResultTable& a,
                          const mss::sweep::ResultTable& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      const Value& va = a.at(i, c);
      const Value& vb = b.at(i, c);
      if (va.index() != vb.index()) return false;
      if (std::holds_alternative<double>(va)) {
        const double da = std::get<double>(va);
        const double db = std::get<double>(vb);
        if (std::memcmp(&da, &db, sizeof da) != 0) return false;
      } else if (va != vb) {
        return false;
      }
    }
  }
  return true;
}

/// Runs one job alone on a fresh server and returns its table.
mss::sweep::ResultTable solo_run(const ParamSpace& space, std::uint64_t seed,
                                 std::size_t threads = 1,
                                 std::size_t stripe_chunks = 2) {
  TestServer ts(threads, stripe_chunks);
  Client client(ts.socket_path);
  SubmitOptions opt;
  opt.seed = seed;
  opt.space = space;
  auto result = client.fetch(client.submit("demo.mc_tail", opt));
  EXPECT_EQ(result.status.state, JobState::Done);
  return std::move(result.table);
}

// A small equal-priority job submitted behind a much larger one must not
// wait for it: round-robin at stripe granularity means the small job
// finishes (6 points = 3 stripes) while the big one (24 points = 12
// stripes) is still mid-flight. The gate holds the executor in the big
// job's first stripe until the small job is queued, so the rotation is
// fixed: one big stripe, then the two alternate.
TEST(ServerSched, EqualPriorityJobsRoundRobin) {
  const auto gate = std::make_shared<Gate>();
  TestServer ts(/*threads=*/1, /*stripe_chunks=*/2, gated_registry(gate));
  Client big_client(ts.socket_path);
  Client small_client(ts.socket_path);

  // Distinct `samples` values (part of every key) tell the jobs apart in
  // the gate's log.
  const std::uint64_t seed_big = 77, seed_small = 78;
  constexpr std::int64_t kBig = 2000, kSmall = 1000;
  const ParamSpace big_space = demo_space(kBig, 24);     // 12 stripes
  const ParamSpace small_space = demo_space(kSmall, 6);  // 3 stripes

  SubmitOptions big;
  big.seed = seed_big;
  big.space = big_space;
  SubmitOptions small;
  small.seed = seed_small;
  small.space = small_space;

  const std::uint64_t big_job = big_client.submit("test.gated", big);
  const std::uint64_t small_job = small_client.submit("test.gated", small);
  gate->open();

  std::size_t small_rows_streamed = 0;
  const auto small_result = small_client.fetch(
      small_job, [&](const std::vector<Value>&) { ++small_rows_streamed; });
  EXPECT_EQ(small_result.status.state, JobState::Done);
  EXPECT_EQ(small_rows_streamed, 6u);
  const auto big_result = big_client.fetch(big_job);
  EXPECT_EQ(big_result.status.state, JobState::Done);

  const auto log = gate->evaluated();
  ASSERT_EQ(log.size(), 30u);
  const auto small_last = std::find(log.rbegin(), log.rend(), kSmall).base();
  // Fairness: the big job (submitted first) got exactly one stripe per
  // small stripe while the small job ran...
  EXPECT_EQ(std::count(log.begin(), small_last, kBig), 6);
  // ...so it was far from finished when the small job completed.
  EXPECT_EQ(std::count(small_last, log.end(), kBig), 18);

  // Interleaving is invisible in the rows: both match solo runs bit for
  // bit (a point's RNG stream depends only on the seed and its key).
  EXPECT_TRUE(
      tables_bit_identical(big_result.table, solo_run(big_space, seed_big)));
  EXPECT_TRUE(tables_bit_identical(small_result.table,
                                   solo_run(small_space, seed_small)));
}

// A higher-priority submission preempts a running lower-priority job at
// its next stripe boundary and runs to completion first. The gate holds
// the executor in the low job's first stripe (if it got that far) until
// the high job is queued.
TEST(ServerSched, HigherPriorityPreemptsAtStripeBoundary) {
  const auto gate = std::make_shared<Gate>();
  TestServer ts(/*threads=*/1, /*stripe_chunks=*/2, gated_registry(gate));
  Client low_client(ts.socket_path);
  Client high_client(ts.socket_path);

  constexpr std::int64_t kLow = 2000, kHigh = 1000;
  SubmitOptions low;
  low.seed = 5;
  low.space = demo_space(kLow, 24); // 12 stripes of background work
  low.priority = 0;
  SubmitOptions high;
  high.seed = 6; // distinct seed: no cross-job cache traffic
  high.space = demo_space(kHigh, 8); // 4 stripes
  high.priority = 10;

  const std::uint64_t low_job = low_client.submit("test.gated", low);
  const std::uint64_t high_job = high_client.submit("test.gated", high);
  gate->open();

  const auto high_result = high_client.fetch(high_job);
  EXPECT_EQ(high_result.status.state, JobState::Done);
  const auto low_result = low_client.fetch(low_job);
  EXPECT_EQ(low_result.status.state, JobState::Done);
  EXPECT_EQ(low_result.table.rows(), 24u);

  const auto log = gate->evaluated();
  ASSERT_EQ(log.size(), 32u);
  const auto high_first = std::find(log.begin(), log.end(), kHigh);
  const auto high_last = std::find(log.rbegin(), log.rend(), kHigh).base();
  // At most the one low stripe already running precedes the high job...
  EXPECT_LE(high_first - log.begin(), 2);
  // ...which then runs without a low stripe in between: the queue strictly
  // prefers the higher priority level...
  EXPECT_EQ(high_last - high_first, 8);
  // ...and finishes while the low job still has stripes left.
  EXPECT_GE(log.end() - high_last, 22);
}

// The slices counter counts scheduling quanta exactly: 9 points at
// stripe of 2 points -> ceil(9/2) = 5 slices.
TEST(ServerSched, SlicesCounterCountsStripes) {
  TestServer ts(/*threads=*/1, /*stripe_chunks=*/2);
  Client client(ts.socket_path);
  SubmitOptions opt;
  opt.space = demo_space(500, 9);
  const auto result = client.fetch(client.submit("demo.mc_tail", opt));
  EXPECT_EQ(result.status.state, JobState::Done);
  EXPECT_EQ(result.status.rows_done, 9u);
  EXPECT_EQ(result.status.slices, 5u);
}

// Interleaved execution stays bit-identical to solo runs across
// {threads} x {stripe_chunks} combinations (the determinism contract:
// the scheduler must never perturb RNG streams).
TEST(ServerSched, ConcurrentRowsBitIdenticalAcrossConfigs) {
  // Distinct seeds: the spaces share three thresholds, and with one seed
  // the second job would serve those rows from the first job's cache
  // entries. Distinct seeds make each job evaluate every row it checks.
  const std::uint64_t seed_a = 0xABCDEF, seed_b = 0xFEDCBA;
  const ParamSpace space_a = demo_space(2000, 7);
  const ParamSpace space_b = demo_space(2000, 5);
  const auto ref_a = solo_run(space_a, seed_a);
  const auto ref_b = solo_run(space_b, seed_b);

  const std::size_t threads_cfg[] = {1, 0}; // serial, shared pool
  const std::size_t stripe_cfg[] = {2, 3};
  for (const std::size_t threads : threads_cfg) {
    for (const std::size_t stripe : stripe_cfg) {
      TestServer ts(threads, stripe);
      Client ca(ts.socket_path);
      Client cb(ts.socket_path);
      SubmitOptions oa;
      oa.seed = seed_a;
      oa.space = space_a;
      SubmitOptions ob;
      ob.seed = seed_b;
      ob.space = space_b;
      const std::uint64_t ja = ca.submit("demo.mc_tail", oa);
      const std::uint64_t jb = cb.submit("demo.mc_tail", ob);
      FetchResult ra{mss::sweep::ResultTable({"x"}), {}};
      std::thread t([&] { ra = ca.fetch(ja); });
      const auto rb = cb.fetch(jb);
      t.join();
      EXPECT_TRUE(tables_bit_identical(ra.table, ref_a))
          << "threads=" << threads << " stripe=" << stripe;
      EXPECT_TRUE(tables_bit_identical(rb.table, ref_b))
          << "threads=" << threads << " stripe=" << stripe;
    }
  }
}

// A finished job's rows live only in the cache. Re-fetching it after a
// larger job has grown the cache (rehashing its index many times) must
// stream a bit-identical table.
TEST(ServerSched, RefetchAfterTheCacheGrewIsBitIdentical) {
  TestServer ts;
  Client client(ts.socket_path);
  SubmitOptions small;
  small.seed = 9;
  small.space = demo_space(500, 6);
  const std::uint64_t small_job = client.submit("demo.mc_tail", small);
  const auto first = client.fetch(small_job);
  ASSERT_EQ(first.status.state, JobState::Done);

  SubmitOptions big;
  big.seed = 10;
  big.space = demo_space(50, 4000);
  const auto big_result = client.fetch(client.submit("demo.mc_tail", big));
  ASSERT_EQ(big_result.status.state, JobState::Done);
  EXPECT_EQ(ts.server->cache().entries(), 4006u);

  const auto again = client.fetch(small_job);
  EXPECT_EQ(again.status.state, JobState::Done);
  EXPECT_EQ(again.table.rows(), 6u);
  EXPECT_TRUE(tables_bit_identical(again.table, first.table));
}

std::size_t count_open_fds() {
  std::size_t n = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n; // includes ".", ".." and the dirfd itself -- constant offsets
}

// Regression test for the connection-lifecycle fd leak: a client that
// connects and disconnects must not cost the daemon an fd (the handler
// closes it on exit) nor an unbounded connection-table entry (finished
// entries are reaped on the next accept).
TEST(ServerSched, ConnectionChurnLeaksNoFds) {
  TestServer ts;
  // Settle: one connection up and down, then wait for the fd count to
  // hold still across two samples before calling it the baseline.
  { Client warmup(ts.socket_path); }
  std::size_t baseline = count_open_fds();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::size_t again = count_open_fds();
    if (again == baseline) break;
    baseline = again;
  }
  ASSERT_GT(baseline, 0u) << "/proc/self/fd unreadable";

  constexpr int kClients = 20;
  for (int i = 0; i < kClients; ++i) {
    Client client(ts.socket_path);
    EXPECT_EQ(client.experiments().size(), 3u);
  } // destructor closes the client side; the handler closes the server side

  // The handler closes its fd as soon as it sees EOF -- poll briefly for
  // the last handler to run its exit path.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::size_t now_open = count_open_fds();
  while (now_open > baseline && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    now_open = count_open_fds();
  }
  EXPECT_LE(now_open, baseline)
      << kClients << " sequential clients leaked "
      << (now_open - baseline) << " fds";

  // The connection table is GCed by the next accept: after one more
  // connection, the finished entries are joined and erased.
  Client final_client(ts.socket_path);
  EXPECT_EQ(final_client.experiments().size(), 3u);
  EXPECT_LE(ts.server->connection_entries(), 2u)
      << "finished connection entries were not reaped";
}

} // namespace
