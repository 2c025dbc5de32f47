// The TCP transport: host:port parsing, in-process listen/connect over
// IPv4 (and IPv6 when available), byte-identical protocol behaviour and
// bit-identical rows versus the unix-socket transport, transient-error
// handling, a real-binaries end-to-end run (mss-server --listen +
// mss-client --connect) compared byte-for-byte against the unix path, and
// both binaries' refusal of malformed numeric flags.
//
// Binary paths arrive via MSS_SERVER_BIN / MSS_CLIENT_BIN (set by CMake
// for the ctest run); the real-binaries cases self-skip when they are
// absent (e.g. a build that only compiled the test targets).
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "server/client.hpp"
#include "server/server.hpp"
#include "util/socket.hpp"

namespace {

using namespace mss::server;
using mss::sweep::Axis;
using mss::sweep::ParamSpace;
using mss::sweep::Value;
using mss::util::HostPort;
using mss::util::parse_host_port;

std::string temp_name(const char* suffix) {
  static int counter = 0;
  return testing::TempDir() + "mss_tcp_" + std::to_string(::getpid()) + "_" +
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

  explicit TestServer(const std::string& listen = "") {
    ServerOptions opt;
    opt.socket_path = socket_path;
    opt.listen_address = listen;
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

TEST(ParseHostPort, AcceptedForms) {
  HostPort hp = parse_host_port("example.org:8080");
  EXPECT_EQ(hp.host, "example.org");
  EXPECT_EQ(hp.port, 8080);

  hp = parse_host_port("127.0.0.1:1");
  EXPECT_EQ(hp.host, "127.0.0.1");
  EXPECT_EQ(hp.port, 1);

  hp = parse_host_port("[::1]:65535"); // bracketed IPv6
  EXPECT_EQ(hp.host, "::1");
  EXPECT_EQ(hp.port, 65535);

  hp = parse_host_port(":0"); // empty host = loopback, ephemeral port
  EXPECT_EQ(hp.host, "");
  EXPECT_EQ(hp.port, 0);
}

TEST(ParseHostPort, MalformedFormsThrow) {
  EXPECT_THROW((void)parse_host_port(""), std::invalid_argument);
  EXPECT_THROW((void)parse_host_port("noport"), std::invalid_argument);
  EXPECT_THROW((void)parse_host_port("host:"), std::invalid_argument);
  EXPECT_THROW((void)parse_host_port("host:abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_host_port("host:70000"), std::invalid_argument);
  EXPECT_THROW((void)parse_host_port("[::1]"), std::invalid_argument);
  EXPECT_THROW((void)parse_host_port("[::1:5"), std::invalid_argument);
}

TEST(ServerTcp, ListensOnEphemeralPortAndServes) {
  TestServer ts("127.0.0.1:0");
  ASSERT_NE(ts.server->tcp_port(), 0) << "ephemeral port was not resolved";
  EXPECT_NE(ts.server->tcp_address().find(':'), std::string::npos);

  Client client = Client::connect_tcp("127.0.0.1:" +
                                      std::to_string(ts.server->tcp_port()));
  EXPECT_EQ(client.server_id(), "mss-server/1"); // same handshake as unix
  EXPECT_EQ(client.experiments().size(), 3u);
}

TEST(ServerTcp, RowsBitIdenticalToUnixTransport) {
  TestServer ts("127.0.0.1:0");
  SubmitOptions opt;
  opt.seed = 31337;
  opt.space = demo_space(1000, 8);

  // Same server, both transports, same submission.
  Client tcp = Client::connect_tcp("127.0.0.1:" +
                                   std::to_string(ts.server->tcp_port()));
  Client unix_client(ts.socket_path);
  const auto via_tcp = tcp.fetch(tcp.submit("demo.mc_tail", opt));
  const auto via_unix =
      unix_client.fetch(unix_client.submit("demo.mc_tail", opt));

  EXPECT_EQ(via_tcp.status.state, JobState::Done);
  EXPECT_EQ(via_unix.status.state, JobState::Done);
  ASSERT_EQ(via_tcp.table.rows(), via_unix.table.rows());
  for (std::size_t i = 0; i < via_tcp.table.rows(); ++i) {
    for (std::size_t c = 0; c < via_tcp.table.cols(); ++c) {
      const Value& vt = via_tcp.table.at(i, c);
      const Value& vu = via_unix.table.at(i, c);
      ASSERT_EQ(vt.index(), vu.index());
      if (std::holds_alternative<double>(vt)) {
        const double dt = std::get<double>(vt);
        const double du = std::get<double>(vu);
        EXPECT_EQ(std::memcmp(&dt, &du, sizeof dt), 0);
      } else {
        EXPECT_EQ(vt, vu);
      }
    }
  }
}

TEST(ServerTcp, ConnectionRefusedSurfacesAsSystemError) {
  // Bind an ephemeral port, learn its number, close it again: connecting
  // to it afterwards must fail fast with a system_error, not hang.
  std::uint16_t dead_port = 0;
  {
    mss::util::TcpListener probe(parse_host_port("127.0.0.1:0"));
    dead_port = probe.port();
  }
  ASSERT_NE(dead_port, 0);
  EXPECT_THROW(
      (void)Client::connect_tcp("127.0.0.1:" + std::to_string(dead_port)),
      std::system_error);
}

TEST(ServerTcp, Ipv6LoopbackWhenAvailable) {
  std::unique_ptr<TestServer> ts;
  try {
    ts = std::make_unique<TestServer>("[::1]:0");
  } catch (const std::exception& e) {
    GTEST_SKIP() << "no IPv6 loopback here: " << e.what();
  }
  ASSERT_NE(ts->server->tcp_port(), 0);
  Client client = Client::connect_tcp(
      "[::1]:" + std::to_string(ts->server->tcp_port()));
  EXPECT_EQ(client.experiments().size(), 3u);
}

// ---------------------------------------------------------------------
// Real-binaries end-to-end: the acceptance path of the TCP transport.
// ---------------------------------------------------------------------

/// Runs a command with popen, captures stdout, returns the exit status
/// through `status`.
std::string run_capture(const std::string& cmd, int& status) {
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    status = -1;
    return {};
  }
  std::string out;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = ::fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    out.append(buf.data(), n);
  }
  status = ::pclose(pipe);
  return out;
}

struct SpawnedServer {
  pid_t pid = -1;
  std::string tcp_endpoint; ///< from the "tcp://..." stderr line; may be ""

  ~SpawnedServer() {
    if (pid > 0) {
      ::kill(pid, SIGTERM);
      int wstatus = 0;
      ::waitpid(pid, &wstatus, 0);
    }
  }
};

/// Spawns mss-server with a stderr pipe and (when `listen` is set) reads
/// the resolved tcp:// endpoint back from it.
std::unique_ptr<SpawnedServer> spawn_server(const std::string& bin,
                                            const std::string& socket_path,
                                            const std::string& listen) {
  int err_pipe[2] = {-1, -1};
  if (::pipe(err_pipe) != 0) return nullptr;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(err_pipe[0]);
    ::close(err_pipe[1]);
    return nullptr;
  }
  if (pid == 0) {
    ::close(err_pipe[0]);
    ::dup2(err_pipe[1], 2);
    ::close(err_pipe[1]);
    if (listen.empty()) {
      ::execl(bin.c_str(), bin.c_str(), "--socket", socket_path.c_str(),
              "--stripe", "2", static_cast<char*>(nullptr));
    } else {
      ::execl(bin.c_str(), bin.c_str(), "--socket", socket_path.c_str(),
              "--listen", listen.c_str(), "--stripe", "2",
              static_cast<char*>(nullptr));
    }
    std::_Exit(127);
  }
  ::close(err_pipe[1]);

  auto server = std::make_unique<SpawnedServer>();
  server->pid = pid;
  // Read stderr until the endpoint line(s) arrive. The unix line prints
  // first, then (when listening) the tcp:// line.
  std::string text;
  const std::string want = listen.empty() ? "listening on " : "tcp://";
  char c = 0;
  while (text.find(want) == std::string::npos ||
         text.find('\n', text.find(want)) == std::string::npos) {
    const ssize_t n = ::read(err_pipe[0], &c, 1);
    if (n <= 0) break; // child died or closed stderr
    text.push_back(c);
  }
  // Keep draining in the background so the child never blocks on a full
  // stderr pipe.
  std::thread([fd = err_pipe[0]] {
    char sink[1024];
    while (::read(fd, sink, sizeof sink) > 0) {
    }
    ::close(fd);
  }).detach();

  const auto tcp_pos = text.find("tcp://");
  if (tcp_pos != std::string::npos) {
    const auto end = text.find('\n', tcp_pos);
    server->tcp_endpoint =
        text.substr(tcp_pos + 6, end - (tcp_pos + 6));
  }
  return server;
}

/// The binary that environment variable `var` names; "" when it is unset
/// or not executable.
std::string tool_bin(const char* var) {
  const char* path = std::getenv(var);
  return path != nullptr && ::access(path, X_OK) == 0 ? path : "";
}

/// Runs `argv` with its output discarded and returns its exit code; -1
/// when it did not exit normally within 10 s (it is then killed).
int exit_code(const std::vector<std::string>& argv) {
  std::vector<char*> args; // built before fork: the child only execs
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    const int null = ::open("/dev/null", O_WRONLY);
    ::dup2(null, 1);
    ::dup2(null, 2);
    ::execv(args[0], args.data());
    std::_Exit(127);
  }
  int wstatus = 0;
  for (int i = 0; i < 1000; ++i) {
    if (::waitpid(pid, &wstatus, WNOHANG) == pid) {
      return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, &wstatus, 0);
  return -1;
}

TEST(ServerTcpE2E, ClientOverTcpMatchesUnixByteForByte) {
  const std::string server_bin = tool_bin("MSS_SERVER_BIN");
  const std::string client_bin = tool_bin("MSS_CLIENT_BIN");
  if (server_bin.empty() || client_bin.empty()) {
    GTEST_SKIP() << "MSS_SERVER_BIN/MSS_CLIENT_BIN not set/executable "
                    "(ctest exports them)";
  }

  // Two independent servers (separate in-memory caches) isolate the
  // transport as the only variable.
  const std::string tcp_sock = temp_name(".sock");
  const std::string unix_sock = temp_name(".sock");
  auto tcp_server = spawn_server(server_bin, tcp_sock, "127.0.0.1:0");
  auto unix_server = spawn_server(server_bin, unix_sock, "");
  ASSERT_NE(tcp_server, nullptr);
  ASSERT_NE(unix_server, nullptr);
  ASSERT_FALSE(tcp_server->tcp_endpoint.empty())
      << "mss-server never printed its tcp:// endpoint";

  const std::string args = " run nvsim.explore --format csv --seed 1234";
  int tcp_status = -1;
  const std::string via_tcp =
      run_capture(client_bin + " --connect " +
                      tcp_server->tcp_endpoint + args + " 2>/dev/null",
                  tcp_status);
  int unix_status = -1;
  const std::string via_unix =
      run_capture(client_bin + " --socket " + unix_sock + args +
                      " 2>/dev/null",
                  unix_status);

  EXPECT_EQ(tcp_status, 0);
  EXPECT_EQ(unix_status, 0);
  EXPECT_FALSE(via_tcp.empty());
  EXPECT_GT(via_tcp.size(), 100u) << "suspiciously small CSV:\n" << via_tcp;
  // The whole CSV — header, row order, every double — must match
  // byte-for-byte across transports.
  EXPECT_EQ(via_tcp, via_unix);

  std::remove(tcp_sock.c_str());
  std::remove(unix_sock.c_str());
}

// A numeric flag that is not a whole in-range integer is a usage error
// (exit 2), never a silent 0 — which --max-conns reads as "unlimited",
// --io-timeout as "never evict" and --timeout as "block forever". The
// server exits before it binds its socket.
TEST(ServerTcpE2E, MalformedNumericFlagsExitWithUsageError) {
  const std::string server_bin = tool_bin("MSS_SERVER_BIN");
  const std::string client_bin = tool_bin("MSS_CLIENT_BIN");
  if (server_bin.empty() || client_bin.empty()) {
    GTEST_SKIP() << "MSS_SERVER_BIN/MSS_CLIENT_BIN not set/executable "
                    "(ctest exports them)";
  }
  const std::string sock = temp_name(".sock");
  for (const auto& [flag, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"--max-conns", "abc"},
           {"--io-timeout", "abc"},
           {"--io-timeout", "3000000"}, // * 1000 overflows an int
           {"--stripe", "-1"},
           {"--threads", "2x"}}) {
    EXPECT_EQ(exit_code({server_bin, "--socket", sock, flag, value}), 2)
        << flag << " " << value;
    EXPECT_NE(::access(sock.c_str(), F_OK), 0) << "mss-server bound " << sock;
  }
  // The removed --compact-on-start is an unknown flag: exit 2 too.
  EXPECT_EQ(exit_code({server_bin, "--socket", sock, "--compact-on-start"}), 2);
  EXPECT_NE(::access(sock.c_str(), F_OK), 0) << "mss-server bound " << sock;
  for (const auto& [flag, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"--timeout", "abc"}, {"--retries", "1e3"}, {"--seed", ""}}) {
    EXPECT_EQ(
        exit_code({client_bin, "--socket", sock, flag, value, "experiments"}),
        2)
        << flag << " " << value;
  }
  std::remove(sock.c_str());
}

} // namespace
