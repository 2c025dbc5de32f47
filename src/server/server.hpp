// The mss-server daemon: simulation-as-a-service over a local unix socket
// and (optionally) TCP.
//
// One process owns the thread pool, the experiment registry and the
// persistent result cache; clients submit serialized sweep jobs and stream
// rows back as they complete. Threading model:
//
//   accept threads       — one per transport (unix socket, optional TCP),
//                          blocking in accept(); one handler thread per
//                          connection, reaped as connections close
//   executor thread      — the scheduler: pops the highest-priority
//                          runnable job off a PriorityBlockingQueue, runs
//                          *one stripe* through StripedRun, re-enqueues it
//                          — round-robin time-slicing at stripe
//                          granularity, FIFO within a priority level, so
//                          concurrent jobs interleave and each streams
//                          rows incrementally while staying bit-identical
//                          to a solo run
//   connection handlers  — parse frames, mutate jobs only under the job
//                          mutex, block on the job cv to stream rows
//
// A job's lifecycle is Queued -> Running -> {Done, Cancelled, Failed}.
// Cancellation is cooperative at stripe boundaries; every completed row is
// already in the cache, so a cancelled (or SIGKILLed) job's work is never
// lost — resubmitting it resumes from the cache bit-identically.
//
// Rows are stored once, in the cache, as their on-disk record bytes: a
// job holds only RowRef handles to its rows there (stable for the
// server's lifetime, see cache.hpp), and fetches copy each row's cell
// bytes into its Row frame verbatim, without holding any lock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/cache.hpp"
#include "server/executor.hpp"
#include "server/registry.hpp"
#include "util/blocking_queue.hpp"
#include "util/socket.hpp"

namespace mss::server {

struct ServerOptions {
  std::string socket_path;
  /// TCP endpoint ("host:port", "[v6]:port", ":port" = loopback; port 0 =
  /// ephemeral). Empty = unix socket only. The protocol has no
  /// authentication: bind loopback unless the network is trusted.
  std::string listen_address;
  /// Persistent cache file; empty = in-memory only (no cross-run resume).
  std::string cache_path;
  /// Cache file size cap in bytes (0 = unlimited); see CacheOptions.
  std::size_t cache_max_bytes = 0;
  /// Per-connection idle I/O timeout in ms (0 = none). A peer that makes
  /// no byte of progress for this long — a slow-loris half-frame, or a
  /// reader that stopped draining its fetch — is evicted; its handler
  /// thread and fd are reclaimed. Generous by default: only a genuinely
  /// wedged peer trips it.
  int io_timeout_ms = 120'000;
  /// Connection cap, enforced against *live* connections (finished
  /// handlers are reaped on exit, not just at the next accept). Excess
  /// clients get a typed Error{Busy} frame and a clean close. 0 = none.
  std::size_t max_conns = 256;
  /// Thread policy of every job (0 = shared global pool, 1 = serial).
  std::size_t threads = 0;
  /// Streaming/cancellation/scheduling quantum, in points.
  std::size_t stripe_chunks = 8;
  /// Reported in the HelloOk handshake.
  std::string server_id = "mss-server/1";
};

/// Wire representation of a job's state (StatusOk `state` byte).
enum class JobState : std::uint8_t {
  Queued = 0,
  Running = 1,
  Done = 2,
  Cancelled = 3,
  Failed = 4,
};

[[nodiscard]] const char* to_string(JobState s);
[[nodiscard]] inline bool is_terminal(JobState s) {
  return s == JobState::Done || s == JobState::Cancelled ||
         s == JobState::Failed;
}

/// Status snapshot (the StatusOk body).
struct JobStatus {
  std::uint64_t id = 0;
  JobState state = JobState::Queued;
  std::uint64_t total = 0;      ///< points in the job's space
  std::uint64_t rows_done = 0;  ///< rows completed (streamable)
  std::uint64_t evaluated = 0;  ///< rows actually computed
  std::uint64_t cache_hits = 0; ///< rows served by the persistent cache
  std::uint64_t memo_hits = 0;  ///< rows copied from an in-job duplicate
  std::uint64_t slices = 0;     ///< scheduler time-slices (stripes) granted
  std::string error;            ///< what() when state == Failed
};

class Server {
 public:
  /// Binds the socket(s) and opens/replays the cache. Throws on any
  /// failing. No threads run until start().
  explicit Server(ServerOptions options, Registry registry = Registry::builtin());
  ~Server(); ///< request_stop() + wait()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the accept and executor threads.
  void start();
  /// Stops accepting, cancels every non-terminal job, unblocks all
  /// connection handlers. Idempotent, thread-safe, non-blocking.
  void request_stop();
  /// Joins every thread. Returns once the server is fully quiesced.
  void wait();

  /// True once a stop was requested (signal handler, Shutdown frame or
  /// request_stop()) — the daemon main loop's poll.
  [[nodiscard]] bool stopping() const {
    return stopping_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const std::string& socket_path() const {
    return options_.socket_path;
  }
  /// Bound TCP endpoint ("host:port", ephemeral port resolved) — empty
  /// when no TCP transport was configured.
  [[nodiscard]] std::string tcp_address() const {
    return tcp_listener_ ? tcp_listener_->address() : std::string();
  }
  /// Bound TCP port (0 when no TCP transport was configured).
  [[nodiscard]] std::uint16_t tcp_port() const {
    return tcp_listener_ ? tcp_listener_->port() : 0;
  }
  [[nodiscard]] const ResultCache& cache() const { return cache_; }
  [[nodiscard]] const Registry& registry() const { return registry_; }

  /// Connection-table entries (live handlers plus finished ones the
  /// reaper has not collected yet — the reaper runs on every handler
  /// exit, so this converges to the live count without any new accept).
  /// Observability for the fd-leak regression tests.
  [[nodiscard]] std::size_t connection_entries() const;
  /// Connections whose handler is still running — what max_conns gates.
  [[nodiscard]] std::size_t live_connections() const;

 private:
  struct Job {
    std::uint64_t id = 0;
    int priority = 0;
    const sweep::RowExperiment* exp = nullptr; ///< into registry_ (stable)
    sweep::ParamSpace space;
    std::uint64_t seed = 0;
    std::atomic<bool> cancel{false};

    /// Striped execution state; created at the job's first slice, owned
    /// and advanced by the executor thread only, freed on terminal.
    std::unique_ptr<StripedRun> run;

    std::mutex m; ///< guards everything below
    std::condition_variable cv;
    JobState state = JobState::Queued;
    std::uint64_t slices = 0;
    /// Completed rows in space order, handles into cache_.
    std::vector<RowRef> rows;
    sweep::RunStats stats;
    std::string error;
  };

  /// One connection-table entry. The handler thread owns fd while it
  /// runs, closes it (under conns_m_) and flags done on exit; an accept
  /// thread later joins+erases done entries.
  struct Conn {
    util::Fd fd;
    std::thread th;
    std::atomic<bool> done{false};
  };

  /// Accepts on one transport (unix or TCP) until it shuts down.
  template <typename Listener>
  void accept_loop(Listener& listener);
  void handle_accepted(util::Fd client);
  /// Joins and erases connection entries whose handlers have exited.
  void reap_finished_conns();
  /// Dedicated reap thread: woken by every handler exit (and a periodic
  /// tick), so finished handlers are collected promptly even on an idle
  /// daemon — max_conns is enforced against live connections, never
  /// against stale table entries.
  void reaper_loop();
  void executor_loop();
  void handle_connection(Conn& conn);
  /// One request frame -> zero or more reply frames. Returns false when
  /// the connection should end (shutdown request).
  bool handle_frame(util::Fd& fd, const std::string& payload);
  /// Runs one scheduling quantum (stripe) of the job. Returns true when
  /// the job should be re-enqueued (more stripes remain).
  bool run_slice(Job& job);
  /// Marks a non-terminal job Cancelled and releases its run state.
  void finish_cancelled(Job& job);
  void stream_fetch(util::Fd& fd, Job& job);

  [[nodiscard]] std::shared_ptr<Job> find_job(std::uint64_t id);
  [[nodiscard]] static JobStatus snapshot_locked(const Job& job);

  ServerOptions options_;
  Registry registry_;
  ResultCache cache_;
  util::UnixListener listener_;
  std::optional<util::TcpListener> tcp_listener_;

  util::PriorityBlockingQueue<std::uint64_t> queue_;
  std::mutex jobs_m_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::uint64_t next_job_id_ = 1;

  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::thread tcp_accept_thread_;
  std::thread executor_thread_;
  std::thread reaper_thread_;
  mutable std::mutex conns_m_;
  /// Wakes the reaper: signalled by every handler exit and request_stop().
  std::condition_variable conns_cv_;
  std::list<Conn> conns_;
};

} // namespace mss::server
