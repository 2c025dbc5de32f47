// Client side of the mss-server protocol: a blocking, single-connection
// handle that speaks the wire format of src/server/wire.hpp over either
// transport — a unix socket path or a TCP "host:port" endpoint
// (connect_tcp); the protocol, handshake included, is byte-identical on
// both. One Client = one socket; requests are serialized on it (the
// protocol is strictly request/reply, with Fetch replies streamed).
// Server-reported failures surface as ServerError carrying the wire
// ErrorCode; transport failures surface as std::system_error.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "server/server.hpp" // JobState, JobStatus
#include "server/wire.hpp"
#include "sweep/param_space.hpp"
#include "sweep/result_table.hpp"
#include "util/socket.hpp"

namespace mss::server {

/// An Error frame, rethrown client-side.
class ServerError : public std::runtime_error {
 public:
  ServerError(ErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  [[nodiscard]] ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// One registry entry, as listed by the server.
struct ExperimentInfo {
  std::string id;
  std::uint32_t version = 1;
  std::string description;
  std::uint64_t default_space_size = 0;
  std::vector<std::string> columns;
};

/// Submit parameters (defaults mirror the wire's "server decides" zeros).
struct SubmitOptions {
  std::uint64_t seed = 0x5EEDC0DEull;
  std::uint32_t experiment_version = 0; ///< 0 = whatever is registered
  std::int32_t priority = 0;            ///< higher runs first
  /// Space to sweep; nullopt = the experiment's default space.
  std::optional<sweep::ParamSpace> space;
};

/// A completed fetch: the streamed table plus the job's final status.
struct FetchResult {
  sweep::ResultTable table;
  JobStatus status;
};

/// Client-side deadlines. Zero = block forever (the pre-hardening
/// behaviour); the mss-client tool always sets both, so a dead daemon
/// fails fast instead of hanging the terminal.
struct ClientOptions {
  /// connect(2) deadline in ms (0 = blocking connect).
  int connect_timeout_ms = 0;
  /// Per-RPC idle deadline in ms (0 = none): an in-flight reply making no
  /// byte of progress for this long throws ETIMEDOUT. Idle, not total —
  /// a long fetch that keeps streaming rows never trips it.
  int io_timeout_ms = 0;
};

class Client {
 public:
  /// Connects over the unix socket and performs the Hello handshake;
  /// throws ServerError on a version refusal (or Error{Busy} when the
  /// server's connection cap is reached), std::system_error when nobody
  /// listens or a deadline expires.
  explicit Client(const std::string& socket_path,
                  const ClientOptions& options = {});

  /// Adopts an already-connected transport fd and performs the handshake.
  explicit Client(util::Fd fd, const ClientOptions& options = {});

  /// Connects over TCP ("host:port", "[v6]:port"); same handshake and
  /// error contract as the unix constructor.
  [[nodiscard]] static Client connect_tcp(const std::string& host_port,
                                          const ClientOptions& options = {});

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// The server_id string from the handshake.
  [[nodiscard]] const std::string& server_id() const { return server_id_; }

  [[nodiscard]] std::vector<ExperimentInfo> experiments();

  /// Submits a job; returns its id immediately (execution is async).
  [[nodiscard]] std::uint64_t submit(const std::string& experiment_id,
                                     const SubmitOptions& options = {});

  [[nodiscard]] JobStatus status(std::uint64_t job_id);

  /// Requests cancellation (cooperative — the job may still finish its
  /// current stripe) and returns the status at that instant.
  JobStatus cancel(std::uint64_t job_id);

  /// Streams the job's rows (blocking until the job reaches a terminal
  /// state). `on_row` (optional) observes each row as it arrives —
  /// incremental consumption; the returned table always holds all rows.
  [[nodiscard]] FetchResult fetch(
      std::uint64_t job_id,
      const std::function<void(const std::vector<sweep::Value>&)>& on_row =
          nullptr);

  /// Asks the server to stop; returns once ShutdownOk arrives.
  void shutdown_server();

 private:
  /// Sends `payload`, receives one reply frame; throws ServerError on an
  /// Error frame, WireError on EOF mid-conversation.
  std::string roundtrip(const std::string& payload);
  static JobStatus parse_status_body(WireReader& r);

  util::Fd fd_;
  ClientOptions options_;
  std::string server_id_;
};

// --- resilience layer --------------------------------------------------------
//
// Retrying a *whole* run (connect + submit + fetch) is safe because the
// server's persistent cache is first-write-wins: a resubmitted job serves
// every already-computed point from the cache bit-identically, so a retry
// resumes instead of recomputing, and the final table is the same bytes
// whichever attempt completes it.

/// Where a resilient client connects: a unix socket path or a TCP
/// "host:port" endpoint.
struct Endpoint {
  std::string socket_path; ///< used when non-empty
  std::string host_port;   ///< TCP endpoint otherwise
  [[nodiscard]] static Endpoint unix_socket(std::string path) {
    return Endpoint{std::move(path), {}};
  }
  [[nodiscard]] static Endpoint tcp(std::string host_port) {
    return Endpoint{{}, std::move(host_port)};
  }
};

/// Exponential-backoff-with-jitter policy. Deterministic: the jitter
/// stream is seeded, so tests replay the exact sleep sequence.
struct RetryOptions {
  int attempts = 5;            ///< total tries (1 = no retry)
  int initial_backoff_ms = 50; ///< first sleep
  double backoff_factor = 2.0; ///< growth per retry
  int max_backoff_ms = 2'000;  ///< backoff ceiling (before jitter)
  std::uint64_t jitter_seed = 0x9E3779B97F4A7C15ull;
  /// Observer for each retry: (attempt just failed [1-based], reason,
  /// upcoming sleep in ms). Tests and the CLI's verbose mode hook this.
  std::function<void(int attempt, const std::string& why, int sleep_ms)>
      on_retry;
};

/// True for failures worth retrying: transport errors (std::system_error
/// — refused/reset/timeout), protocol tear-downs (WireError — EOF
/// mid-reply), and the two explicitly-retryable server refusals
/// (Error{Busy}, Error{ShuttingDown}). Everything else — BadVersion,
/// UnknownExperiment, Internal… — would fail identically on every retry.
[[nodiscard]] bool retryable_error(const std::exception& e);

/// Connects (unix or TCP per `where`) with deadlines and backoff-retries.
/// Throws the last attempt's error when every try fails.
[[nodiscard]] Client connect_with_retry(const Endpoint& where,
                                        const ClientOptions& options = {},
                                        const RetryOptions& retry = {});

/// The resilient one-shot: connect, submit, fetch — retried as a unit
/// with exponential backoff on any retryable failure, resuming from the
/// server's cache (see above). `on_row` may observe rows more than once
/// across attempts (each fetch restreams from row 0); the returned table
/// is the single successful attempt's, complete and in order.
[[nodiscard]] FetchResult run_with_retry(
    const Endpoint& where, const std::string& experiment_id,
    const SubmitOptions& submit = {}, const ClientOptions& options = {},
    const RetryOptions& retry = {},
    const std::function<void(const std::vector<sweep::Value>&)>& on_row =
        nullptr);

} // namespace mss::server
