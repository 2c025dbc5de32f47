#include "server/client.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <system_error>
#include <thread>

namespace mss::server {

namespace {

/// Decodes a reply payload's type byte; converts Error frames into throws.
FrameType reply_type(WireReader& r) {
  const auto type = FrameType(r.u8());
  if (type == FrameType::Error) {
    const auto code = ErrorCode(r.u16());
    throw ServerError(code, r.str());
  }
  return type;
}

[[noreturn]] void unexpected(FrameType type) {
  throw WireError("unexpected reply frame type " +
                  std::to_string(int(type)));
}

} // namespace

Client::Client(util::Fd fd, const ClientOptions& options)
    : fd_(std::move(fd)), options_(options) {
  WireWriter w;
  w.u8(std::uint8_t(FrameType::Hello));
  w.u32(kProtocolVersion);
  std::string reply;
  try {
    reply = roundtrip(w.take());
  } catch (const std::system_error& e) {
    // A refusing server (Error{Busy}) replies and closes without ever
    // reading our Hello, so the handshake *send* can fail with
    // EPIPE/ECONNRESET while the typed refusal already sits in our
    // receive buffer. Drain it so callers get the ServerError (which
    // retry classification understands), not the transport symptom.
    if (e.code().value() != EPIPE && e.code().value() != ECONNRESET) throw;
    try {
      if (auto pending = recv_frame(fd_, options_.io_timeout_ms)) {
        reply = std::move(*pending);
      }
    } catch (...) {
    }
    if (reply.empty()) throw; // nothing buffered: the transport error stands
  }
  WireReader r(reply);
  if (reply_type(r) != FrameType::HelloOk) unexpected(FrameType::HelloOk);
  (void)r.u32(); // server's protocol version (== ours, it accepted)
  server_id_ = r.str();
}

Client::Client(const std::string& socket_path, const ClientOptions& options)
    : Client(util::unix_connect(socket_path, options.connect_timeout_ms),
             options) {}

Client Client::connect_tcp(const std::string& host_port,
                           const ClientOptions& options) {
  return Client(util::tcp_connect(util::parse_host_port(host_port),
                                  options.connect_timeout_ms),
                options);
}

std::string Client::roundtrip(const std::string& payload) {
  send_frame(fd_, payload, options_.io_timeout_ms);
  auto reply = recv_frame(fd_, options_.io_timeout_ms);
  if (!reply) throw WireError("server closed the connection mid-request");
  return std::move(*reply);
}

JobStatus Client::parse_status_body(WireReader& r) {
  JobStatus s;
  s.id = r.u64();
  s.state = JobState(r.u8());
  s.total = r.u64();
  s.rows_done = r.u64();
  s.evaluated = r.u64();
  s.cache_hits = r.u64();
  s.memo_hits = r.u64();
  s.slices = r.u64();
  s.error = r.str();
  return s;
}

std::vector<ExperimentInfo> Client::experiments() {
  WireWriter w;
  w.u8(std::uint8_t(FrameType::ListExperiments));
  const std::string reply = roundtrip(w.take());
  WireReader r(reply);
  if (reply_type(r) != FrameType::ExperimentsOk) {
    unexpected(FrameType::ExperimentsOk);
  }
  std::vector<ExperimentInfo> out(r.u32());
  for (auto& info : out) {
    info.id = r.str();
    info.version = r.u32();
    info.description = r.str();
    info.default_space_size = r.u64();
    info.columns.resize(r.u32());
    for (auto& col : info.columns) col = r.str();
  }
  return out;
}

std::uint64_t Client::submit(const std::string& experiment_id,
                             const SubmitOptions& options) {
  WireWriter w;
  w.u8(std::uint8_t(FrameType::Submit));
  w.str(experiment_id);
  w.u32(options.experiment_version);
  w.u64(options.seed);
  w.i32(options.priority);
  w.u8(options.space.has_value() ? 1 : 0);
  if (options.space) w.space(*options.space);
  const std::string reply = roundtrip(w.take());
  WireReader r(reply);
  if (reply_type(r) != FrameType::Submitted) unexpected(FrameType::Submitted);
  return r.u64();
}

JobStatus Client::status(std::uint64_t job_id) {
  WireWriter w;
  w.u8(std::uint8_t(FrameType::Status));
  w.u64(job_id);
  const std::string reply = roundtrip(w.take());
  WireReader r(reply);
  if (reply_type(r) != FrameType::StatusOk) unexpected(FrameType::StatusOk);
  return parse_status_body(r);
}

JobStatus Client::cancel(std::uint64_t job_id) {
  WireWriter w;
  w.u8(std::uint8_t(FrameType::Cancel));
  w.u64(job_id);
  const std::string reply = roundtrip(w.take());
  WireReader r(reply);
  if (reply_type(r) != FrameType::StatusOk) unexpected(FrameType::StatusOk);
  return parse_status_body(r);
}

FetchResult Client::fetch(
    std::uint64_t job_id,
    const std::function<void(const std::vector<sweep::Value>&)>& on_row) {
  WireWriter w;
  w.u8(std::uint8_t(FrameType::Fetch));
  w.u64(job_id);
  const std::string begin = roundtrip(w.take());

  std::vector<std::string> columns;
  {
    WireReader r(begin);
    if (reply_type(r) != FrameType::TableBegin) {
      unexpected(FrameType::TableBegin);
    }
    (void)r.u64(); // job id (echoed)
    columns.resize(r.u32());
    for (auto& col : columns) col = r.str();
  }

  FetchResult result{sweep::ResultTable(columns), {}};
  while (true) {
    auto frame = recv_frame(fd_, options_.io_timeout_ms);
    if (!frame) throw WireError("server closed the connection mid-fetch");
    WireReader r(*frame);
    const FrameType type = reply_type(r);
    if (type == FrameType::Row) {
      std::vector<sweep::Value> row(r.u32());
      for (auto& cell : row) cell = r.value();
      if (on_row) on_row(row);
      result.table.add_row(std::move(row));
    } else if (type == FrameType::TableEnd) {
      result.status = parse_status_body(r);
      return result;
    } else {
      unexpected(type);
    }
  }
}

void Client::shutdown_server() {
  WireWriter w;
  w.u8(std::uint8_t(FrameType::Shutdown));
  const std::string reply = roundtrip(w.take());
  WireReader r(reply);
  if (reply_type(r) != FrameType::ShutdownOk) unexpected(FrameType::ShutdownOk);
}

// --- resilience layer --------------------------------------------------------

namespace {

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Client connect_once(const Endpoint& where, const ClientOptions& options) {
  if (!where.socket_path.empty()) return Client(where.socket_path, options);
  return Client::connect_tcp(where.host_port, options);
}

/// One shared backoff loop: runs `op` up to retry.attempts times, sleeping
/// backoff+jitter between tries. Deterministic jitter (seeded splitmix64)
/// in [0, backoff/2) — decorrelates a thundering herd of clients without
/// making test runs flaky.
template <typename Op>
auto with_retry(const RetryOptions& retry, Op&& op) {
  const int attempts = retry.attempts > 0 ? retry.attempts : 1;
  std::uint64_t jitter_state = retry.jitter_seed;
  double backoff = double(retry.initial_backoff_ms);
  for (int attempt = 1;; ++attempt) {
    try {
      return op();
    } catch (const std::exception& e) {
      if (attempt >= attempts || !retryable_error(e)) throw;
      int sleep_ms = int(backoff);
      if (sleep_ms > 0) {
        sleep_ms += int(splitmix64(jitter_state) % std::uint64_t(sleep_ms / 2 + 1));
      }
      if (retry.on_retry) retry.on_retry(attempt, e.what(), sleep_ms);
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      backoff = std::min(backoff * retry.backoff_factor,
                         double(retry.max_backoff_ms));
    }
  }
}

} // namespace

bool retryable_error(const std::exception& e) {
  if (const auto* se = dynamic_cast<const ServerError*>(&e)) {
    return se->code() == ErrorCode::Busy ||
           se->code() == ErrorCode::ShuttingDown;
  }
  // ServerError derives from runtime_error, WireError too — order matters:
  // ServerError was handled above, so a WireError here is a genuine
  // protocol tear-down (EOF mid-reply after a server death), retryable.
  if (dynamic_cast<const WireError*>(&e) != nullptr) return true;
  return dynamic_cast<const std::system_error*>(&e) != nullptr;
}

Client connect_with_retry(const Endpoint& where, const ClientOptions& options,
                          const RetryOptions& retry) {
  return with_retry(retry, [&] { return connect_once(where, options); });
}

FetchResult run_with_retry(
    const Endpoint& where, const std::string& experiment_id,
    const SubmitOptions& submit, const ClientOptions& options,
    const RetryOptions& retry,
    const std::function<void(const std::vector<sweep::Value>&)>& on_row) {
  // The whole attempt — connect, submit, fetch — retries as a unit: a
  // fresh connection gets a fresh job id, but the server's first-write-
  // wins cache makes the resubmission resume from every already-computed
  // row, so completed work is never repeated and the final table is
  // bit-identical whichever attempt finishes.
  return with_retry(retry, [&] {
    Client client = connect_once(where, options);
    const std::uint64_t id = client.submit(experiment_id, submit);
    return client.fetch(id, on_row);
  });
}

} // namespace mss::server
