// Hostile-peer hardening, end-to-end: slow-loris eviction under a live
// concurrent job, max-conns Busy refusal + recovery, handler-exit reaping
// without new accepts, client RPC deadlines against a silent server,
// fail-fast connects, run_with_retry resuming bit-identically from the
// persistent cache, and the bound on a submitted space's point count.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "server/client.hpp"
#include "server/registry.hpp"
#include "server/server.hpp"
#include "util/socket.hpp"

namespace {

using namespace mss::server;
using mss::sweep::Axis;
using mss::sweep::ParamSpace;
using mss::sweep::Value;

std::string temp_name(const char* suffix) {
  static int counter = 0;
  return testing::TempDir() + "mss_hard_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + suffix;
}

ParamSpace demo_space(std::int64_t samples, std::size_t n_thresholds) {
  ParamSpace s;
  s.cross(Axis::list("samples", std::vector<std::int64_t>{samples}))
      .cross(Axis::linear("threshold", 0.5, 2.5, n_thresholds));
  return s;
}

struct TestServer {
  std::string socket_path = temp_name(".sock");
  std::unique_ptr<Server> server;

  explicit TestServer(ServerOptions opt = {}) {
    opt.socket_path = socket_path;
    opt.threads = 1;
    opt.stripe_chunks = 2;
    server = std::make_unique<Server>(opt);
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

/// Polls `cond` until it holds or ~5s elapse.
template <typename Cond>
bool eventually(Cond cond) {
  for (int i = 0; i < 500; ++i) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return cond();
}

bool bit_equal_tables(const mss::sweep::ResultTable& a,
                      const mss::sweep::ResultTable& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      const Value& va = a.at(r, c);
      const Value& vb = b.at(r, c);
      if (va.index() != vb.index()) return false;
      if (const auto* da = std::get_if<double>(&va)) {
        const double db = std::get<double>(vb);
        if (std::memcmp(da, &db, sizeof db) != 0) return false;
      } else if (!(va == vb)) {
        return false;
      }
    }
  }
  return true;
}

TEST(ServerHardening, SlowLorisIsEvictedWhileRealWorkStreams) {
  ServerOptions opt;
  opt.io_timeout_ms = 200; // aggressive for the test; default is 120s
  TestServer ts(opt);

  // The hostile peer: half a frame header, then silence. Pre-hardening
  // this pinned a handler thread in read_exact forever.
  mss::util::Fd loris = mss::util::unix_connect(ts.socket_path);
  mss::util::write_all(loris, "\x08\x00", 2);
  ASSERT_TRUE(eventually([&] { return ts.server->live_connections() == 1u; }));

  // A well-behaved client streams a whole job to completion while the
  // loris sits mid-header on its own handler.
  Client client(ts.socket_path);
  SubmitOptions sopt;
  sopt.seed = 7;
  sopt.space = demo_space(400, 8);
  const auto result = client.fetch(client.submit("demo.mc_tail", sopt));
  EXPECT_EQ(result.status.state, JobState::Done);
  EXPECT_EQ(result.table.rows(), 8u);

  // The loris trips the idle timeout: its handler exits, closes the fd
  // (we see EOF), and the reaper reclaims the entry with no new accepts.
  ASSERT_TRUE(eventually([&] {
    char byte;
    const ssize_t r = ::recv(loris.get(), &byte, 1, MSG_DONTWAIT);
    return r == 0;
  }));
  EXPECT_TRUE(eventually([&] { return ts.server->connection_entries() <= 1u; }));

  // The eviction was surgical: the server still serves new clients.
  Client after(ts.socket_path);
  EXPECT_EQ(after.server_id(), "mss-server/1");
}

TEST(ServerHardening, ConnectionCapSendsTypedBusyAndRecovers) {
  ServerOptions opt;
  opt.max_conns = 2;
  TestServer ts(opt);

  auto c1 = std::make_optional<Client>(ts.socket_path);
  auto c2 = std::make_optional<Client>(ts.socket_path);
  ASSERT_TRUE(eventually([&] { return ts.server->live_connections() == 2u; }));

  // The third connection gets Error{Busy} instead of the HelloOk — a
  // typed, retryable refusal, not a hang or a silent close.
  try {
    Client c3(ts.socket_path);
    FAIL() << "expected ServerError{Busy}";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Busy);
    EXPECT_TRUE(retryable_error(e));
  }

  // Capacity returns as soon as a handler exits — hanging up is enough,
  // no new accept needed to reap the slot.
  c1.reset();
  ASSERT_TRUE(eventually([&] { return ts.server->live_connections() < 2u; }));
  Client c3(ts.socket_path);
  EXPECT_EQ(c3.server_id(), "mss-server/1");
  c2.reset();
}

TEST(ServerHardening, FinishedHandlersAreReapedWithoutNewAccepts) {
  TestServer ts;
  for (int i = 0; i < 4; ++i) {
    Client client(ts.socket_path);
    EXPECT_EQ(client.server_id(), "mss-server/1");
  }
  // All four connections are closed; the dedicated reaper must collect
  // every entry without any further accept() traffic.
  EXPECT_TRUE(eventually([&] { return ts.server->connection_entries() == 0u; }));
}

TEST(ServerHardening, RpcDeadlineFailsAgainstASilentServer) {
  // A listener that accepts and then never says anything — the handshake
  // reply never comes. The client's io deadline must fire.
  const std::string path = temp_name(".sock");
  mss::util::UnixListener listener(path);
  std::thread acceptor([&] {
    mss::util::Fd conn = listener.accept();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  });

  ClientOptions copt;
  copt.connect_timeout_ms = 1'000;
  copt.io_timeout_ms = 100;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    Client client(path, copt);
    FAIL() << "expected ETIMEDOUT";
  } catch (const std::system_error& e) {
    EXPECT_EQ(e.code().value(), ETIMEDOUT);
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::milliseconds(450)); // deadline, not the nap
  acceptor.join();
  std::remove(path.c_str());
}

TEST(ServerHardening, ConnectToDeadEndpointFailsFastAndRetriesDeterministically) {
  const std::string path = temp_name(".sock"); // nobody listens
  ClientOptions copt;
  copt.connect_timeout_ms = 1'000;
  RetryOptions retry;
  retry.attempts = 3;
  retry.initial_backoff_ms = 1;
  std::vector<int> retried_attempts;
  retry.on_retry = [&](int attempt, const std::string&, int) {
    retried_attempts.push_back(attempt);
  };
  EXPECT_THROW(connect_with_retry(Endpoint::unix_socket(path), copt, retry),
               std::system_error);
  EXPECT_EQ(retried_attempts, (std::vector<int>{1, 2})); // 3rd throw is final
}

TEST(ServerHardening, NonRetryableServerErrorsAreNotRetried) {
  TestServer ts;
  RetryOptions retry;
  retry.attempts = 4;
  retry.initial_backoff_ms = 1;
  int retries = 0;
  retry.on_retry = [&](int, const std::string&, int) { ++retries; };
  EXPECT_THROW((void)run_with_retry(Endpoint::unix_socket(ts.socket_path),
                                    "no.such.experiment", {}, {}, retry),
               ServerError);
  EXPECT_EQ(retries, 0); // UnknownExperiment fails identically every time
}

TEST(ServerHardening, RunWithRetryResumesBitIdenticallyThroughBusy) {
  const std::string cache = temp_name(".mssc");
  SubmitOptions sopt;
  sopt.seed = 321;
  sopt.space = demo_space(600, 10);

  // Baseline: the job solo on a fresh server, fully evaluated.
  mss::sweep::ResultTable baseline({""});
  {
    ServerOptions opt;
    opt.cache_path = cache;
    TestServer ts(opt);
    Client client(ts.socket_path);
    auto result = client.fetch(client.submit("demo.mc_tail", sopt));
    EXPECT_EQ(result.status.evaluated, 10u);
    baseline = std::move(result.table);
  }

  // Same cache, capacity 1, and the only slot parked by a squatter: the
  // first run_with_retry attempts are refused with Busy. Freeing the slot
  // mid-retry lets a later attempt through — which must serve every row
  // from the cache, bit-identical to the baseline.
  ServerOptions opt;
  opt.cache_path = cache;
  opt.max_conns = 1;
  TestServer ts(opt);

  auto squatter = std::make_optional<Client>(ts.socket_path);
  ASSERT_TRUE(eventually([&] { return ts.server->live_connections() == 1u; }));

  int busy_retries = 0;
  RetryOptions retry;
  retry.attempts = 50;
  retry.initial_backoff_ms = 20;
  retry.max_backoff_ms = 40;
  retry.on_retry = [&](int, const std::string&, int) { ++busy_retries; };
  std::thread freer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    squatter.reset(); // hang up; handler-exit reaping frees the slot
  });
  const auto result = run_with_retry(Endpoint::unix_socket(ts.socket_path),
                                     "demo.mc_tail", sopt, {}, retry);
  freer.join();

  EXPECT_GE(busy_retries, 1); // the cap really did push back
  EXPECT_EQ(result.status.state, JobState::Done);
  EXPECT_EQ(result.status.evaluated, 0u); // resumed, not recomputed
  EXPECT_EQ(result.status.cache_hits, 10u);
  EXPECT_TRUE(bit_equal_tables(result.table, baseline));
  std::remove(cache.c_str());
}

// 64 binary axes fit in a ~2 KB Submit frame, yet their product wraps the
// point count to 0. The daemon refuses the space as a malformed frame
// instead of running a 0-row job (or, at 22 axes, spending gigabytes on
// the job's bookkeeping), and the connection stays usable.
TEST(ServerHardening, OversizedSpaceIsABadFrameAndTheConnectionSurvives) {
  TestServer ts;
  Client client(ts.socket_path);

  ParamSpace huge;
  for (int i = 0; i < 64; ++i) {
    huge.cross(
        Axis::list("b" + std::to_string(i), std::vector<double>{0.0, 1.0}));
  }
  SubmitOptions bad;
  bad.space = std::move(huge);
  try {
    (void)client.submit("demo.mc_tail", bad);
    ADD_FAILURE() << "a 2^64-point space was accepted";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), ErrorCode::BadFrame) << e.what();
  }

  SubmitOptions small;
  small.seed = 5;
  small.space = demo_space(200, 3);
  const auto result = client.fetch(client.submit("demo.mc_tail", small));
  EXPECT_EQ(result.status.state, JobState::Done);
  EXPECT_EQ(result.table.rows(), 3u);
}

} // namespace
