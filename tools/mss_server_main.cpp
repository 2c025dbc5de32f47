// mss-server: the simulation-as-a-service daemon. Binds a local unix
// socket, serves the builtin experiment registry (nvsim.explore,
// magpie.scenario, demo.mc_tail) and persists every evaluated row to the
// result cache, so a killed/restarted server resumes half-finished sweeps
// from disk. Stop with SIGINT/SIGTERM or `mss-client shutdown`.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "cli_flags.hpp"
#include "server/server.hpp"

namespace {

using mss::tools::parse_number;
using mss::tools::parse_seconds_ms;

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--socket PATH] [--listen HOST:PORT] [--cache "
               "PATH]\n"
               "          [--cache-max-bytes N] [--compact-cache]\n"
               "          [--io-timeout SEC] [--max-conns N]\n"
               "          [--threads N] [--stripe N]\n"
               "  --socket PATH   unix socket to listen on "
               "(default ./mss-server.sock)\n"
               "  --listen H:P    additionally listen on TCP (\":0\" = "
               "loopback,\n"
               "                  ephemeral port; the actual endpoint is "
               "printed).\n"
               "                  No authentication: bind loopback unless "
               "the\n"
               "                  network is trusted\n"
               "  --cache PATH    persistent result cache file; omit for a\n"
               "                  purely in-memory cache (no cross-run "
               "resume)\n"
               "  --cache-max-bytes N  cache file size cap; appends past "
               "it\n"
               "                  compact first, then go memory-only "
               "(default: unlimited)\n"
               "  --compact-cache rewrite the cache dropping duplicate "
               "records,\n"
               "                  print the stats and exit (needs --cache)\n"
               "  --io-timeout S  per-connection idle I/O timeout in "
               "seconds; a peer\n"
               "                  making no progress that long is evicted "
               "(default 120,\n"
               "                  0 = never)\n"
               "  --max-conns N   live-connection cap; excess clients get "
               "a retryable\n"
               "                  Busy error (default 256, 0 = unlimited)\n"
               "  --threads N     job thread policy: 0 = shared pool "
               "(default), 1 = serial\n"
               "  --stripe N      points per streaming/cancellation/"
               "scheduling stripe\n"
               "                  (default 8)\n",
               argv0);
}

} // namespace

int main(int argc, char** argv) {
  mss::server::ServerOptions options;
  options.socket_path = "./mss-server.sock";
  bool compact_only = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      options.socket_path = next();
    } else if (arg == "--listen") {
      options.listen_address = next();
    } else if (arg == "--cache") {
      options.cache_path = next();
    } else if (arg == "--cache-max-bytes") {
      options.cache_max_bytes = parse_number<std::size_t>(arg.c_str(), next());
    } else if (arg == "--compact-cache") {
      compact_only = true;
    } else if (arg == "--io-timeout") {
      options.io_timeout_ms = parse_seconds_ms(arg.c_str(), next());
    } else if (arg == "--max-conns") {
      options.max_conns = parse_number<std::size_t>(arg.c_str(), next());
    } else if (arg == "--threads") {
      options.threads = parse_number<std::size_t>(arg.c_str(), next());
    } else if (arg == "--stripe") {
      options.stripe_chunks = parse_number<std::size_t>(arg.c_str(), next());
    } else {
      usage(argv[0]);
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }

  if (compact_only) {
    // Standalone maintenance mode: compact the cache file and exit without
    // binding any socket — safe to run while no server owns the file.
    if (options.cache_path.empty()) {
      std::fprintf(stderr, "mss-server: --compact-cache needs --cache PATH\n");
      return 2;
    }
    try {
      mss::server::ResultCache cache(options.cache_path);
      const auto stats = cache.compact();
      std::fprintf(stderr,
                   "mss-server: compacted %s: %zu -> %zu bytes, %zu -> %zu "
                   "records\n",
                   options.cache_path.c_str(), stats.bytes_before,
                   stats.bytes_after, stats.records_before,
                   stats.records_after);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mss-server: compact failed: %s\n", e.what());
      return 1;
    }
    return 0;
  }

  struct sigaction sa {};
  sa.sa_handler = on_signal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  try {
    mss::server::Server server(options);
    const auto& cache = server.cache();
    std::fprintf(stderr, "mss-server: listening on %s\n",
                 server.socket_path().c_str());
    if (!server.tcp_address().empty()) {
      // The tcp:// line is machine-parseable: tests (and scripts) read the
      // ephemeral port back from it when --listen used port 0.
      std::fprintf(stderr, "mss-server: listening on tcp://%s\n",
                   server.tcp_address().c_str());
    }
    if (!cache.path().empty()) {
      std::fprintf(stderr,
                   "mss-server: cache %s (%zu rows replayed, %zu bytes of "
                   "torn tail discarded)\n",
                   cache.path().c_str(), cache.replayed(),
                   cache.discarded_bytes());
    }
    server.start();
    while (!g_stop.load() && !server.stopping()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    server.request_stop();
    server.wait();
    std::fprintf(stderr, "mss-server: stopped (%zu cached rows)\n",
                 cache.entries());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mss-server: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
