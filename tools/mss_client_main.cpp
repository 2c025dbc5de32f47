// mss-client: submit, monitor and fetch jobs on a running mss-server,
// over its unix socket (--socket PATH, the default transport) or TCP
// (--connect HOST:PORT — same protocol, works across machines).
//
//   mss-client [transport] experiments
//   mss-client [transport] submit EXPERIMENT [submit flags]
//   mss-client [transport] status JOB
//   mss-client [transport] cancel JOB
//   mss-client [transport] fetch JOB [--format console|csv|json]
//   mss-client [transport] run EXPERIMENT [submit flags] [--format ...]
//   mss-client [transport] shutdown
//
// submit flags: --seed N --priority N
// `run` = submit + blocking fetch in one call.
//
// Resilience: connects fail fast (5 s deadline) instead of hanging on a
// dead endpoint; --timeout SEC sets both the connect and the per-RPC idle
// deadline; --retries N retries retryable failures (connection refused,
// reset, Busy, ShuttingDown) with exponential backoff — for `run`, the
// whole submit+fetch is retried and resumes from the server's cache.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "cli_flags.hpp"
#include "server/client.hpp"

namespace {

using mss::tools::parse_number;
using mss::tools::parse_seconds_ms;

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--socket PATH | --connect HOST:PORT]\n"
      "          [--timeout SEC] [--retries N] COMMAND ...\n"
      "  experiments                         list servable experiments\n"
      "  submit EXP [--seed N] [--priority N]\n"
      "  status JOB                          one status snapshot\n"
      "  cancel JOB                          cooperative cancellation\n"
      "  fetch JOB [--format console|csv|json]  stream the result table\n"
      "  run EXP [submit flags] [--format F] submit + fetch\n"
      "  shutdown                            stop the server\n"
      "  --timeout SEC   connect + per-RPC idle deadline (default: 5 s\n"
      "                  connect, no RPC deadline; 0 = block forever)\n"
      "  --retries N     retry retryable failures N times with backoff\n"
      "                  (default 0; `run` retries resume from the cache)\n",
      argv0);
}

void print_status(const mss::server::JobStatus& s, FILE* out = stdout) {
  std::fprintf(out,
               "job %llu: %s  rows %llu/%llu  evaluated %llu  cache-hits "
               "%llu  memo-hits %llu  slices %llu\n",
               static_cast<unsigned long long>(s.id),
               mss::server::to_string(s.state),
               static_cast<unsigned long long>(s.rows_done),
               static_cast<unsigned long long>(s.total),
               static_cast<unsigned long long>(s.evaluated),
               static_cast<unsigned long long>(s.cache_hits),
               static_cast<unsigned long long>(s.memo_hits),
               static_cast<unsigned long long>(s.slices));
  if (!s.error.empty()) std::fprintf(out, "  error: %s\n", s.error.c_str());
}

void print_table(const mss::sweep::ResultTable& table,
                 const std::string& format) {
  if (format == "csv") {
    std::fputs(table.csv().c_str(), stdout);
  } else if (format == "json") {
    std::fputs(table.json().c_str(), stdout);
    std::fputc('\n', stdout);
  } else {
    std::fputs(table.str().c_str(), stdout);
  }
}

/// The job id operand of status/cancel/fetch.
std::uint64_t job_id(const std::string& s) {
  return parse_number<std::uint64_t>("JOB", s.c_str());
}

} // namespace

int main(int argc, char** argv) {
  std::string socket_path = "./mss-server.sock";
  std::string connect_address; // non-empty = TCP transport
  std::string format = "console";
  // Fail-fast by default: a dead endpoint errors after 5 s instead of
  // hanging the terminal. --timeout overrides both deadlines.
  mss::server::ClientOptions client_options;
  client_options.connect_timeout_ms = 5'000;
  mss::server::RetryOptions retry;
  retry.attempts = 1; // --retries N => N extra attempts
  mss::server::SubmitOptions submit;
  std::vector<std::string> positional;

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
      socket_path = next();
    } else if (arg == "--connect") {
      connect_address = next();
    } else if (arg == "--format") {
      format = next();
    } else if (arg == "--timeout") {
      const int ms = parse_seconds_ms(arg.c_str(), next());
      client_options.connect_timeout_ms = ms;
      client_options.io_timeout_ms = ms;
    } else if (arg == "--retries") {
      retry.attempts = 1 + parse_number(arg.c_str(), next(), 0,
                                        std::numeric_limits<int>::max() - 1);
    } else if (arg == "--seed") {
      submit.seed = parse_number<std::uint64_t>(arg.c_str(), next());
    } else if (arg == "--priority") {
      submit.priority = parse_number<std::int32_t>(arg.c_str(), next());
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.empty()) {
    usage(argv[0]);
    return 2;
  }
  const std::string& command = positional[0];

  const auto endpoint = connect_address.empty()
                            ? mss::server::Endpoint::unix_socket(socket_path)
                            : mss::server::Endpoint::tcp(connect_address);
  retry.on_retry = [](int attempt, const std::string& why, int sleep_ms) {
    std::fprintf(stderr, "mss-client: attempt %d failed (%s), retrying in %d ms\n",
                 attempt, why.c_str(), sleep_ms);
  };

  try {
    if (command == "run") {
      if (positional.size() < 2) {
        usage(argv[0]);
        return 2;
      }
      // The whole submit+fetch retries as a unit; completed rows resume
      // from the server's first-write-wins cache, so a mid-fetch
      // reconnect never recomputes or reorders anything.
      const auto result = mss::server::run_with_retry(
          endpoint, positional[1], submit, client_options, retry);
      print_table(result.table, format);
      print_status(result.status, stderr); // keep csv/json on stdout clean
      return result.status.state == mss::server::JobState::Done ? 0 : 1;
    }

    mss::server::Client client =
        mss::server::connect_with_retry(endpoint, client_options, retry);

    if (command == "experiments") {
      for (const auto& exp : client.experiments()) {
        std::printf("%-18s v%u  %llu default points  %s\n", exp.id.c_str(),
                    exp.version,
                    static_cast<unsigned long long>(exp.default_space_size),
                    exp.description.c_str());
      }
      return 0;
    }
    if (command == "shutdown") {
      client.shutdown_server();
      std::printf("server stopping\n");
      return 0;
    }
    if (positional.size() < 2) {
      usage(argv[0]);
      return 2;
    }

    if (command == "submit") {
      const std::uint64_t id = client.submit(positional[1], submit);
      std::printf("%llu\n", static_cast<unsigned long long>(id));
      return 0;
    }
    if (command == "status") {
      print_status(client.status(job_id(positional[1])));
      return 0;
    }
    if (command == "cancel") {
      print_status(client.cancel(job_id(positional[1])));
      return 0;
    }
    if (command == "fetch") {
      const std::uint64_t id = job_id(positional[1]);
      const auto result = client.fetch(id);
      print_table(result.table, format);
      print_status(result.status, stderr); // keep csv/json on stdout clean
      return result.status.state == mss::server::JobState::Done ? 0 : 1;
    }

    usage(argv[0]);
    return 2;
  } catch (const mss::server::ServerError& e) {
    std::fprintf(stderr, "server error %u: %s\n", unsigned(e.code()),
                 e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
