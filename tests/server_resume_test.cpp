// End-to-end kill/restart resumability (the crash-safety contract of the
// persistent result cache): spawn the real mss-server binary, submit an
// NVSim exploration, a MAGPIE scenario sweep and a long Monte-Carlo job
// concurrently, SIGKILL the server mid-job, restart it on the same cache
// file, and assert the resumed results are bit-identical to a cold
// single-process run — including the RunStats cache-hit accounting, and
// with >= 90% of a warm rerun served straight from the cache.
//
// The daemon binary's path arrives via MSS_SERVER_BIN (set by CMake). The
// test forks before any thread exists in this process; the in-process
// reference runs use threads = 1 (serial), so they are fork-safe too.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "server/client.hpp"
#include "server/executor.hpp"
#include "server/registry.hpp"
#include "sweep/param_space.hpp"

namespace {

using namespace mss::server;
using mss::sweep::Axis;
using mss::sweep::ParamSpace;
using mss::sweep::Value;

std::string temp_name(const char* suffix) {
  static int counter = 0;
  return testing::TempDir() + "mss_resume_" + std::to_string(::getpid()) +
         "_" + std::to_string(counter++) + suffix;
}

/// The long job the kill interrupts: ~50 distinct slow points.
ParamSpace long_space() {
  ParamSpace s;
  s.cross(Axis::list("samples", std::vector<std::int64_t>{400000}))
      .cross(Axis::linear("threshold", 0.25, 3.0, 50));
  return s;
}

pid_t spawn_server(const std::string& bin, const std::string& socket_path,
                   const std::string& cache_path) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Stripe of 2 points: fine-grained cache appends, so a mid-job kill
    // leaves plenty of resumable rows behind.
    ::execl(bin.c_str(), bin.c_str(), "--socket", socket_path.c_str(),
            "--cache", cache_path.c_str(), "--stripe", "2",
            static_cast<char*>(nullptr));
    std::perror("execl mss-server");
    std::_Exit(127);
  }
  return pid;
}

/// Polls until the daemon accepts connections (it unlinks/rebinds the
/// socket on startup, so connect may briefly fail).
std::unique_ptr<Client> connect_with_retry(const std::string& socket_path) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    try {
      return std::make_unique<Client>(socket_path);
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  return nullptr;
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

/// Cold single-process reference: the executor with no cache, serial.
mss::sweep::ResultTable reference_rows(const mss::sweep::RowExperiment& exp,
                                       const ParamSpace& space,
                                       std::uint64_t seed) {
  ExecOptions opt;
  opt.seed = seed;
  opt.threads = 1;
  mss::sweep::ResultTable table(exp.columns);
  std::vector<std::vector<Value>> rows;
  const auto outcome = run_cached(
      exp, space, opt, nullptr, nullptr,
      [&](const mss::sweep::RunStats&,
          const std::vector<std::vector<Value>>& all, std::size_t end) {
        rows.assign(all.begin(), all.begin() + std::ptrdiff_t(end));
      },
      nullptr);
  EXPECT_EQ(outcome, ExecOutcome::Done);
  for (const auto& row : rows) table.add_row(row);
  return table;
}

TEST(ServerResume, KillMidJobRestartsBitIdentically) {
  const char* bin = std::getenv("MSS_SERVER_BIN");
  if (bin == nullptr || *bin == '\0') {
    GTEST_SKIP() << "MSS_SERVER_BIN not set (ctest exports it)";
  }
  const std::string socket_path = temp_name(".sock");
  const std::string cache_path = temp_name(".mssc");
  const std::uint64_t seed = 0xFEEDFACEull;
  const ParamSpace mc_space = long_space();

  // --- phase 1: cold server, three concurrent jobs, SIGKILL mid-flight --
  pid_t pid = spawn_server(bin, socket_path, cache_path);
  ASSERT_GT(pid, 0);
  std::uint64_t rows_before_kill = 0;
  {
    auto client = connect_with_retry(socket_path);
    ASSERT_NE(client, nullptr) << "server never came up";

    SubmitOptions mc;
    mc.seed = seed;
    mc.space = mc_space;
    mc.priority = 5; // runs first: the job the kill interrupts
    const std::uint64_t mc_job = client->submit("demo.mc_tail", mc);

    SubmitOptions defaults;
    defaults.seed = seed;
    (void)client->submit("nvsim.explore", defaults);
    (void)client->submit("magpie.scenario", defaults);

    // Wait until the Monte-Carlo job is visibly mid-flight, then kill -9.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
      const auto st = client->status(mc_job);
      rows_before_kill = st.rows_done;
      if (st.rows_done > 0 && st.rows_done < st.total) break;
      if (is_terminal(st.state)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  EXPECT_GT(rows_before_kill, 0u) << "kill raced job completion";
  EXPECT_LT(rows_before_kill, mc_space.size())
      << "job finished before the kill; nothing was interrupted";

  // --- phase 2: restart on the same cache, resubmit everything ----------
  pid = spawn_server(bin, socket_path, cache_path);
  ASSERT_GT(pid, 0);
  mss::sweep::ResultTable mc_table({"x"});
  mss::sweep::ResultTable nvsim_table({"x"});
  mss::sweep::ResultTable magpie_table({"x"});
  JobStatus mc_resumed, warm;
  {
    auto client = connect_with_retry(socket_path);
    ASSERT_NE(client, nullptr) << "server did not restart";

    SubmitOptions mc;
    mc.seed = seed;
    mc.space = mc_space;
    auto mc_result = client->fetch(client->submit("demo.mc_tail", mc));
    mc_table = std::move(mc_result.table);
    mc_resumed = mc_result.status;

    SubmitOptions defaults;
    defaults.seed = seed;
    auto nvsim_result = client->fetch(client->submit("nvsim.explore", defaults));
    nvsim_table = std::move(nvsim_result.table);
    EXPECT_EQ(nvsim_result.status.state, JobState::Done);

    auto magpie_result =
        client->fetch(client->submit("magpie.scenario", defaults));
    magpie_table = std::move(magpie_result.table);
    EXPECT_EQ(magpie_result.status.state, JobState::Done);

    // The interrupted job resumed: some rows from the cache (appended
    // before the kill), the rest evaluated, none lost.
    EXPECT_EQ(mc_resumed.state, JobState::Done);
    EXPECT_EQ(mc_resumed.rows_done, mc_space.size());
    EXPECT_GT(mc_resumed.cache_hits, 0u) << "nothing resumed from the cache";
    EXPECT_EQ(mc_resumed.cache_hits + mc_resumed.evaluated, mc_space.size());

    // --- phase 3: fully warm rerun, >= 90% served from the cache --------
    auto warm_result = client->fetch(client->submit("demo.mc_tail", mc));
    warm = warm_result.status;
    EXPECT_EQ(warm.state, JobState::Done);
    EXPECT_EQ(warm.cache_hits, mc_space.size());
    EXPECT_EQ(warm.evaluated, 0u);
    EXPECT_GE(double(warm.cache_hits), 0.9 * double(mc_space.size()));
    EXPECT_TRUE(tables_bit_identical(warm_result.table, mc_table));

    client->shutdown_server();
  }
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0)
      << "server exit status " << wstatus;

  // --- phase 4: cold in-process references, bit-identical to the server's
  // killed-and-resumed results (all forks are done; serial execution) ----
  const Registry registry = Registry::builtin();
  const auto* mc_exp = registry.find("demo.mc_tail");
  const auto* nvsim_exp = registry.find("nvsim.explore");
  const auto* magpie_exp = registry.find("magpie.scenario");
  ASSERT_NE(mc_exp, nullptr);
  ASSERT_NE(nvsim_exp, nullptr);
  ASSERT_NE(magpie_exp, nullptr);
  EXPECT_TRUE(tables_bit_identical(
      mc_table, reference_rows(*mc_exp, mc_space, seed)));
  EXPECT_TRUE(tables_bit_identical(
      nvsim_table,
      reference_rows(*nvsim_exp, nvsim_exp->default_space(), seed)));
  EXPECT_TRUE(tables_bit_identical(
      magpie_table,
      reference_rows(*magpie_exp, magpie_exp->default_space(), seed)));

  std::remove(socket_path.c_str());
  std::remove(cache_path.c_str());
}

} // namespace
