// Seeded wire-protocol fuzzing against a live in-process server: garbage
// handshakes, bit-mutated/truncated/oversized frames and hostile length
// prefixes. The server's contract under all of it: reply with a typed
// Error frame or drop the connection — never crash, never hang a handler,
// never leak an fd or a connection-table entry, and keep the executor
// serving well-formed clients afterwards.
//
// Deterministic by construction (seeded splitmix64 drives every mutation),
// so a failure reproduces byte-for-byte from the seed in the test name.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <thread>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
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

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string temp_name(const char* suffix) {
  static int counter = 0;
  return testing::TempDir() + "mss_fuzz_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + suffix;
}

/// Open fds of this process — the leak detector.
std::size_t open_fd_count() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  std::size_t n = 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n > 0 ? n - 3 : 0; // ".", "..", the DIR's own fd
}

/// A trivially cheap experiment, so a mutated-but-still-valid Submit can
/// never turn the fuzzer into a load generator.
Registry cheap_registry() {
  Registry reg;
  mss::sweep::RowExperiment exp;
  exp.id = "fuzz.echo";
  exp.version = 1;
  exp.description = "echoes the point index";
  exp.columns = {"x", "y"};
  exp.default_space = [] {
    ParamSpace s;
    s.cross(Axis::linear("x", 0.0, 1.0, 3));
    return s;
  };
  exp.evaluate = [](const mss::sweep::Point& p, mss::util::Rng&) {
    return std::vector<Value>{p.at("x"), Value(1.0)};
  };
  reg.add(exp);
  return reg;
}

struct FuzzServer {
  std::string socket_path = temp_name(".sock");
  std::unique_ptr<Server> server;

  FuzzServer() {
    ServerOptions opt;
    opt.socket_path = socket_path;
    opt.threads = 1;
    opt.stripe_chunks = 2;
    opt.io_timeout_ms = 5'000; // a wedged handler self-evicts inside the test
    server = std::make_unique<Server>(opt, cheap_registry());
    server->start();
  }
  ~FuzzServer() {
    if (server) {
      server->request_stop();
      server->wait();
    }
    std::remove(socket_path.c_str());
  }
};

/// Client-side receive with a hard deadline: a server that neither replies
/// nor hangs up within 2s counts as hung, which fails the test.
enum class Outcome { ErrorFrame, OtherFrame, Disconnected };

Outcome read_outcome(const mss::util::Fd& fd) {
  try {
    const auto payload = recv_frame(fd, 2'000);
    if (!payload) return Outcome::Disconnected;
    if (payload->empty()) return Outcome::OtherFrame;
    return FrameType((*payload)[0]) == FrameType::Error ? Outcome::ErrorFrame
                                                        : Outcome::OtherFrame;
  } catch (const std::system_error& e) {
    EXPECT_NE(e.code().value(), ETIMEDOUT)
        << "server neither replied nor hung up: handler wedged";
    return Outcome::Disconnected;
  } catch (const WireError&) {
    return Outcome::Disconnected; // EOF mid-frame = the server dropped us
  }
}

/// Drains replies until the server hangs up or stops talking; asserts the
/// handler never wedges (see read_outcome).
void drain(const mss::util::Fd& fd) {
  for (int i = 0; i < 64; ++i) {
    if (read_outcome(fd) == Outcome::Disconnected) return;
  }
}

std::string hello_payload() {
  WireWriter w;
  w.u8(std::uint8_t(FrameType::Hello));
  w.u32(kProtocolVersion);
  return w.take();
}

/// A pool of well-formed request payloads the mutator starts from.
std::vector<std::string> seed_payloads() {
  std::vector<std::string> seeds;
  {
    WireWriter w; // Submit with explicit (tiny) space
    w.u8(std::uint8_t(FrameType::Submit));
    w.str("fuzz.echo");
    w.u32(1);
    w.u64(42);
    w.i32(0);
    w.u8(1);
    ParamSpace s;
    s.cross(Axis::linear("x", 0.0, 1.0, 2));
    w.space(s);
    seeds.push_back(w.take());
  }
  {
    WireWriter w; // Submit using the default space
    w.u8(std::uint8_t(FrameType::Submit));
    w.str("fuzz.echo");
    w.u32(0);
    w.u64(7);
    w.i32(0);
    w.u8(0);
    seeds.push_back(w.take());
  }
  for (const FrameType t :
       {FrameType::Status, FrameType::Cancel, FrameType::Fetch}) {
    WireWriter w;
    w.u8(std::uint8_t(t));
    w.u64(1);
    seeds.push_back(w.take());
  }
  {
    WireWriter w;
    w.u8(std::uint8_t(FrameType::ListExperiments));
    seeds.push_back(w.take());
  }
  return seeds;
}

/// Mutates a payload: bit flips, truncation, or random extension. Keeps
/// the result away from FrameType::Shutdown — a fuzzed Shutdown would
/// legitimately stop the server and invalidate the rest of the round.
std::string mutate(std::string payload, std::uint64_t& rng) {
  switch (splitmix64(rng) % 3) {
    case 0: { // flip 1-8 bytes
      const std::size_t flips = 1 + splitmix64(rng) % 8;
      for (std::size_t i = 0; i < flips && !payload.empty(); ++i) {
        payload[splitmix64(rng) % payload.size()] ^=
            char(1u << (splitmix64(rng) % 8));
      }
      break;
    }
    case 1: // truncate
      if (!payload.empty()) {
        payload.resize(splitmix64(rng) % payload.size());
      }
      break;
    default: { // extend with junk
      const std::size_t extra = 1 + splitmix64(rng) % 64;
      for (std::size_t i = 0; i < extra; ++i) {
        payload.push_back(char(splitmix64(rng) & 0xFF));
      }
      break;
    }
  }
  if (!payload.empty() &&
      FrameType(payload[0]) == FrameType::Shutdown) {
    payload[0] = char(0x7F);
  }
  return payload;
}

/// Back-to-back fuzz rounds can momentarily overflow the unix listener's
/// backlog (connect fails EAGAIN) — that is flow control, not a server
/// defect; retry briefly.
mss::util::Fd connect_retry(const std::string& path) {
  for (int i = 0;; ++i) {
    try {
      return mss::util::unix_connect(path, 2'000);
    } catch (const std::system_error& e) {
      if (i >= 200 || (e.code().value() != EAGAIN &&
                       e.code().value() != ECONNREFUSED)) {
        throw;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

void send_raw_frame(const mss::util::Fd& fd, const std::string& payload) {
  char head[4];
  const auto len = std::uint32_t(payload.size());
  for (int i = 0; i < 4; ++i) head[i] = char(len >> (8 * i));
  mss::util::write_all(fd, head, sizeof head, 2'000);
  mss::util::write_all(fd, payload.data(), payload.size(), 2'000);
}

/// The post-fuzz health check: every entry reaped, no fd growth, and the
/// executor still runs a clean job end to end.
void assert_server_healthy(FuzzServer& ts, std::size_t fd_baseline) {
  // A completed handshake on a fresh probe connection proves that every
  // earlier connect was accepted and registered: the single accept thread
  // drains the FIFO listen backlog in order. Without the probe, the reap
  // wait below can pass before the last fuzz connection reaches the table.
  { Client probe(ts.socket_path); }
  bool reaped = false;
  for (int i = 0; i < 500 && !reaped; ++i) {
    reaped = ts.server->connection_entries() == 0;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(reaped) << "connection entries not reaped after fuzzing";
  EXPECT_LE(open_fd_count(), fd_baseline) << "fd leak after fuzzing";

  Client client(ts.socket_path);
  const auto result = client.fetch(client.submit("fuzz.echo"));
  EXPECT_EQ(result.status.state, JobState::Done);
  EXPECT_EQ(result.table.rows(), 3u);
}

TEST(ServerFuzz, GarbageHandshakesGetErrorOrDisconnect) {
  FuzzServer ts;
  const std::size_t fd_baseline = open_fd_count();
  std::uint64_t rng = 0xF00DF00D;
  for (int round = 0; round < 40; ++round) {
    mss::util::Fd fd = connect_retry(ts.socket_path);
    const std::size_t len = splitmix64(rng) % 64;
    std::string garbage(len, '\0');
    for (auto& c : garbage) c = char(splitmix64(rng) & 0xFF);
    if (!garbage.empty() &&
        FrameType(garbage[0]) == FrameType::Shutdown) {
      garbage[0] = char(0x7F);
    }
    try {
      send_raw_frame(fd, garbage);
    } catch (const std::system_error&) {
      continue; // server already hung up on us: acceptable
    }
    drain(fd);
  }
  assert_server_healthy(ts, fd_baseline);
}

TEST(ServerFuzz, MutatedFramesAfterValidHandshakeNeverWedgeTheServer) {
  FuzzServer ts;
  const std::size_t fd_baseline = open_fd_count();
  const auto seeds = seed_payloads();
  std::uint64_t rng = 0xC0FFEE42;
  for (int round = 0; round < 40; ++round) {
    mss::util::Fd fd = connect_retry(ts.socket_path);
    try {
      send_raw_frame(fd, hello_payload());
      if (read_outcome(fd) == Outcome::Disconnected) continue;
      // A burst of mutated requests on one connection; each gets *some*
      // reply or a hang-up within the deadline.
      const std::size_t burst = 1 + splitmix64(rng) % 4;
      for (std::size_t i = 0; i < burst; ++i) {
        send_raw_frame(
            fd, mutate(seeds[splitmix64(rng) % seeds.size()], rng));
        if (read_outcome(fd) == Outcome::Disconnected) break;
      }
    } catch (const std::system_error&) {
      continue; // reset mid-burst: the server dropped us, acceptable
    }
  }
  assert_server_healthy(ts, fd_baseline);
}

TEST(ServerFuzz, HostileLengthPrefixesAreRefused) {
  FuzzServer ts;
  const std::size_t fd_baseline = open_fd_count();
  // Length prefixes beyond kMaxFrameBytes (up to 0xFFFFFFFF): the server
  // must refuse the frame outright — error-then-close, no attempt to
  // allocate or read 4GB.
  for (const std::uint32_t len :
       {kMaxFrameBytes + 1, 0x40000000u, 0xFFFFFFFFu}) {
    mss::util::Fd fd = connect_retry(ts.socket_path);
    char head[4];
    for (int i = 0; i < 4; ++i) head[i] = char(len >> (8 * i));
    mss::util::write_all(fd, head, sizeof head, 2'000);
    const Outcome outcome = read_outcome(fd);
    EXPECT_TRUE(outcome == Outcome::ErrorFrame ||
                outcome == Outcome::Disconnected);
    drain(fd);
  }
  assert_server_healthy(ts, fd_baseline);
}

TEST(ServerFuzz, TruncatedFrameThenHangupNeverLeaksTheHandler) {
  FuzzServer ts;
  const std::size_t fd_baseline = open_fd_count();
  std::uint64_t rng = 0xDEAD10CC;
  for (int round = 0; round < 20; ++round) {
    mss::util::Fd fd = connect_retry(ts.socket_path);
    // Declare more payload than we send, then hang up mid-frame.
    const std::string payload = hello_payload();
    char head[4];
    const auto len = std::uint32_t(payload.size() + 1 + splitmix64(rng) % 32);
    for (int i = 0; i < 4; ++i) head[i] = char(len >> (8 * i));
    mss::util::write_all(fd, head, sizeof head, 2'000);
    mss::util::write_all(fd, payload.data(), payload.size(), 2'000);
    fd.close();
  }
  assert_server_healthy(ts, fd_baseline);
}

} // namespace
