// In-process mss-server end-to-end: handshake, submit/status/fetch
// streaming, concurrent clients, cancellation, error frames, the refusal
// of an older protocol version, shutdown, and cross-restart cache
// resumption (graceful-stop flavour; the SIGKILL flavour lives in
// server_resume_test.cpp).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "server/client.hpp"
#include "server/registry.hpp"
#include "server/server.hpp"
#include "server/wire.hpp"
#include "util/socket.hpp"

namespace {

using namespace mss::server;
using mss::sweep::Axis;
using mss::sweep::ParamSpace;
using mss::sweep::Value;

std::string temp_name(const char* suffix) {
  static int counter = 0;
  return testing::TempDir() + "mss_e2e_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + suffix;
}

/// A small controllable demo space (all-distinct points).
ParamSpace demo_space(std::int64_t samples, std::size_t n_thresholds) {
  ParamSpace s;
  s.cross(Axis::list("samples", std::vector<std::int64_t>{samples}))
      .cross(Axis::linear("threshold", 0.5, 2.5, n_thresholds));
  return s;
}

struct TestServer {
  std::string socket_path = temp_name(".sock");
  std::string cache_path;
  std::unique_ptr<Server> server;

  explicit TestServer(const std::string& cache = "") : cache_path(cache) {
    ServerOptions opt;
    opt.socket_path = socket_path;
    opt.cache_path = cache_path;
    opt.threads = 1;       // deterministic and fork/tsan friendly
    opt.stripe_chunks = 2; // small stripes: streaming actually streams
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

TEST(ServerE2E, HandshakeReportsServerId) {
  TestServer ts;
  Client client(ts.socket_path);
  EXPECT_EQ(client.server_id(), "mss-server/1");
}

TEST(ServerE2E, ListsBuiltinExperiments) {
  TestServer ts;
  Client client(ts.socket_path);
  const auto exps = client.experiments();
  ASSERT_EQ(exps.size(), 3u);
  EXPECT_EQ(exps[0].id, "nvsim.explore");
  EXPECT_EQ(exps[1].id, "magpie.scenario");
  EXPECT_EQ(exps[2].id, "demo.mc_tail");
  EXPECT_GT(exps[0].default_space_size, 0u);
  EXPECT_EQ(exps[2].columns,
            (std::vector<std::string>{"samples", "threshold", "p_tail",
                                      "mean"}));
}

TEST(ServerE2E, SubmitFetchStreamsEveryRowInOrder) {
  TestServer ts;
  Client client(ts.socket_path);

  SubmitOptions opt;
  opt.seed = 99;
  opt.space = demo_space(500, 9);
  const std::uint64_t job = client.submit("demo.mc_tail", opt);

  std::vector<std::vector<Value>> streamed;
  const auto result = client.fetch(
      job, [&](const std::vector<Value>& row) { streamed.push_back(row); });

  EXPECT_EQ(result.status.state, JobState::Done);
  EXPECT_EQ(result.status.total, 9u);
  EXPECT_EQ(result.status.rows_done, 9u);
  EXPECT_EQ(result.status.evaluated, 9u);
  EXPECT_EQ(result.table.rows(), 9u);
  EXPECT_EQ(streamed.size(), 9u);
  EXPECT_EQ(result.table.columns()[2], "p_tail");
  // Row i corresponds to space point i: thresholds ascend.
  for (std::size_t i = 1; i < 9; ++i) {
    EXPECT_GT(result.table.number(i, "threshold"),
              result.table.number(i - 1, "threshold"));
  }
}

TEST(ServerE2E, StatusTracksJobLifecycle) {
  TestServer ts;
  Client client(ts.socket_path);
  SubmitOptions opt;
  opt.space = demo_space(200, 4);
  const std::uint64_t job = client.submit("demo.mc_tail", opt);
  (void)client.fetch(job); // wait for completion
  const auto status = client.status(job);
  EXPECT_EQ(status.state, JobState::Done);
  EXPECT_EQ(status.rows_done, 4u);
  EXPECT_TRUE(status.error.empty());
}

TEST(ServerE2E, ConcurrentClientsBothComplete) {
  TestServer ts;
  Client a(ts.socket_path);
  Client b(ts.socket_path);

  SubmitOptions small;
  small.space = demo_space(300, 5);
  SubmitOptions priority;
  priority.space = demo_space(300, 6);
  priority.priority = 10;

  const std::uint64_t job_a = a.submit("demo.mc_tail", small);
  const std::uint64_t job_b = b.submit("demo.mc_tail", priority);
  ASSERT_NE(job_a, job_b);

  FetchResult ra{mss::sweep::ResultTable({"x"}), {}};
  std::thread t([&] { ra = a.fetch(job_a); });
  const auto rb = b.fetch(job_b);
  t.join();

  EXPECT_EQ(ra.status.state, JobState::Done);
  EXPECT_EQ(rb.status.state, JobState::Done);
  EXPECT_EQ(ra.table.rows(), 5u);
  EXPECT_EQ(rb.table.rows(), 6u);
}

TEST(ServerE2E, UnknownExperimentAndJobAreErrorFrames) {
  TestServer ts;
  Client client(ts.socket_path);
  try {
    (void)client.submit("no.such.experiment");
    FAIL() << "expected ServerError";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), ErrorCode::UnknownExperiment);
  }
  try {
    (void)client.status(424242);
    FAIL() << "expected ServerError";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), ErrorCode::UnknownJob);
  }
  // The connection survives error frames.
  EXPECT_EQ(client.experiments().size(), 3u);
}

TEST(ServerE2E, WrongExperimentVersionIsRefused) {
  TestServer ts;
  Client client(ts.socket_path);
  SubmitOptions opt;
  opt.experiment_version = 999;
  EXPECT_THROW((void)client.submit("demo.mc_tail", opt), ServerError);
}

// A client of the retired v2 protocol, whose Submit still carried
// chunk_size and threads, is refused at the handshake with
// Error{BadVersion} (code 2) instead of having its frames misparsed, and
// the daemon goes on serving current clients.
TEST(ServerE2E, OlderProtocolVersionIsRefusedAndTheDaemonSurvives) {
  TestServer ts;
  {
    const mss::util::Fd fd = mss::util::unix_connect(ts.socket_path, 2'000);
    WireWriter w;
    w.u8(std::uint8_t(FrameType::Hello));
    w.u32(kProtocolVersion - 1);
    send_frame(fd, w.take(), 2'000);
    const auto reply = recv_frame(fd, 2'000);
    ASSERT_TRUE(reply.has_value());
    WireReader r(*reply);
    EXPECT_EQ(FrameType(r.u8()), FrameType::Error);
    EXPECT_EQ(r.u16(), 2u);
  }
  Client client(ts.socket_path);
  EXPECT_EQ(client.server_id(), "mss-server/1");
}

TEST(ServerE2E, CancelledJobReportsCancelledState) {
  TestServer ts;
  Client client(ts.socket_path);
  SubmitOptions opt;
  opt.space = demo_space(500000, 64); // slow enough to catch in flight
  const std::uint64_t job = client.submit("demo.mc_tail", opt);
  (void)client.cancel(job);
  const auto result = client.fetch(job); // drains whatever completed
  EXPECT_EQ(result.status.state, JobState::Cancelled);
  EXPECT_LE(result.status.rows_done, result.status.total);
  EXPECT_EQ(result.table.rows(), result.status.rows_done);
}

TEST(ServerE2E, FailingEvaluationSurfacesAsFailedJob) {
  TestServer ts;
  Client client(ts.socket_path);
  SubmitOptions opt;
  // demo.mc_tail rejects samples <= 0 inside evaluate().
  ParamSpace bad;
  bad.cross(Axis::list("samples", std::vector<std::int64_t>{-5}))
      .cross(Axis::list("threshold", std::vector<double>{1.0}));
  opt.space = bad;
  const std::uint64_t job = client.submit("demo.mc_tail", opt);
  const auto result = client.fetch(job);
  EXPECT_EQ(result.status.state, JobState::Failed);
  EXPECT_NE(result.status.error.find("samples"), std::string::npos);
}

TEST(ServerE2E, ShutdownFrameStopsTheServer) {
  TestServer ts;
  Client client(ts.socket_path);
  client.shutdown_server();
  ts.server->wait();
  EXPECT_TRUE(ts.server->stopping());
}

TEST(ServerE2E, RestartResumesFromPersistentCache) {
  const std::string cache_path = temp_name(".mssc");
  SubmitOptions opt;
  opt.seed = 4242;
  opt.space = demo_space(1000, 12);

  FetchResult cold{mss::sweep::ResultTable({"x"}), {}};
  {
    TestServer ts(cache_path);
    Client client(ts.socket_path);
    cold = client.fetch(client.submit("demo.mc_tail", opt));
    EXPECT_EQ(cold.status.state, JobState::Done);
    EXPECT_EQ(cold.status.evaluated, 12u);
    EXPECT_EQ(cold.status.cache_hits, 0u);
  } // graceful stop; server_resume_test covers SIGKILL

  TestServer ts(cache_path);
  EXPECT_EQ(ts.server->cache().replayed(), 12u);
  Client client(ts.socket_path);
  const auto warm = client.fetch(client.submit("demo.mc_tail", opt));
  EXPECT_EQ(warm.status.state, JobState::Done);
  EXPECT_EQ(warm.status.evaluated, 0u);
  EXPECT_EQ(warm.status.cache_hits, 12u);

  // Bit-identical rows (the p_tail/mean doubles come from RNG draws).
  ASSERT_EQ(warm.table.rows(), cold.table.rows());
  for (std::size_t i = 0; i < warm.table.rows(); ++i) {
    for (std::size_t c = 0; c < warm.table.cols(); ++c) {
      const Value& vw = warm.table.at(i, c);
      const Value& vc = cold.table.at(i, c);
      ASSERT_EQ(vw.index(), vc.index());
      if (std::holds_alternative<double>(vw)) {
        const double dw = std::get<double>(vw);
        const double dc = std::get<double>(vc);
        EXPECT_EQ(std::memcmp(&dw, &dc, sizeof dw), 0);
      } else {
        EXPECT_EQ(vw, vc);
      }
    }
  }
  std::remove(cache_path.c_str());
}

} // namespace
