#include "server/server.hpp"

#include <exception>
#include <utility>

#include "server/wire.hpp"

namespace mss::server {

namespace {

std::string error_payload(ErrorCode code, const std::string& message) {
  WireWriter w;
  w.u8(std::uint8_t(FrameType::Error));
  w.u16(std::uint16_t(code));
  w.str(message);
  return w.take();
}

void write_status_body(WireWriter& w, const JobStatus& s) {
  w.u64(s.id);
  w.u8(std::uint8_t(s.state));
  w.u64(s.total);
  w.u64(s.rows_done);
  w.u64(s.evaluated);
  w.u64(s.cache_hits);
  w.u64(s.memo_hits);
  w.u64(s.slices);
  w.str(s.error);
}

} // namespace

const char* to_string(JobState s) {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Cancelled: return "cancelled";
    case JobState::Failed: return "failed";
  }
  return "?";
}

Server::Server(ServerOptions options, Registry registry)
    : options_(std::move(options)),
      registry_(std::move(registry)),
      cache_(options_.cache_path, CacheOptions{options_.cache_max_bytes}),
      listener_(options_.socket_path) {
  if (!options_.listen_address.empty()) {
    tcp_listener_.emplace(util::parse_host_port(options_.listen_address));
  }
}

Server::~Server() {
  request_stop();
  wait();
}

void Server::start() {
  accept_thread_ = std::thread([this] { accept_loop(listener_); });
  if (tcp_listener_) {
    tcp_accept_thread_ = std::thread([this] { accept_loop(*tcp_listener_); });
  }
  executor_thread_ = std::thread([this] { executor_loop(); });
  reaper_thread_ = std::thread([this] { reaper_loop(); });
}

void Server::request_stop() {
  if (stopping_.exchange(true)) return;
  queue_.close();
  listener_.shutdown();
  if (tcp_listener_) tcp_listener_->shutdown();
  {
    std::lock_guard<std::mutex> lk(jobs_m_);
    for (auto& [id, job] : jobs_) {
      job->cancel.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> jlk(job->m);
      if (job->state == JobState::Queued) job->state = JobState::Cancelled;
      job->cv.notify_all();
    }
  }
  {
    std::lock_guard<std::mutex> lk(conns_m_);
    for (auto& conn : conns_) conn.fd.shutdown_rw();
  }
  conns_cv_.notify_all();
}

void Server::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  if (tcp_accept_thread_.joinable()) tcp_accept_thread_.join();
  if (executor_thread_.joinable()) executor_thread_.join();
  if (reaper_thread_.joinable()) reaper_thread_.join();
  // The accept threads and the reaper (sole erasers of conns_) are
  // joined: the list structure is stable, safe to iterate unlocked — and
  // we must not hold conns_m_ here, a handler serving a Shutdown frame
  // takes it inside request_stop() and again when closing its fd on exit.
  for (auto& conn : conns_) {
    if (conn.th.joinable()) conn.th.join();
  }
}

std::size_t Server::connection_entries() const {
  std::lock_guard<std::mutex> lk(conns_m_);
  return conns_.size();
}

std::size_t Server::live_connections() const {
  std::lock_guard<std::mutex> lk(conns_m_);
  std::size_t n = 0;
  for (const auto& conn : conns_) {
    if (!conn.done.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

template <typename Listener>
void Server::accept_loop(Listener& listener) {
  try {
    while (true) {
      util::Fd client = listener.accept();
      if (!client.valid()) return; // shutdown
      handle_accepted(std::move(client));
    }
  } catch (const std::exception&) {
    // accept() already retried every transient errno; a throw means this
    // listener is irrecoverably broken. Stop accepting on it — running
    // jobs and the other transport keep serving.
  }
}

void Server::handle_accepted(util::Fd client) {
  // Garbage-collect finished handlers before adding a new one: the table
  // stays bounded by live connections (+ reap latency), not by the
  // connection count since startup. The dedicated reaper also collects on
  // every handler exit, so an idle accept loop does not delay reclamation.
  reap_finished_conns();
  {
    std::lock_guard<std::mutex> lk(conns_m_);
    std::size_t live = 0;
    for (const auto& conn : conns_) {
      if (!conn.done.load(std::memory_order_acquire)) ++live;
    }
    if (options_.max_conns == 0 || live < options_.max_conns) {
      conns_.emplace_back();
      Conn& conn = conns_.back();
      conn.fd = std::move(client);
      if (stopping_.load(std::memory_order_relaxed)) {
        // request_stop() may already have swept conns_ — shut this one
        // down ourselves (under the same mutex, so exactly one of us does
        // it last) and let the handler exit on the dead socket.
        conn.fd.shutdown_rw();
      }
      conn.th = std::thread([this, &conn] { handle_connection(conn); });
      return;
    }
  }
  // Over the cap: a typed, retryable refusal instead of a silent close or
  // an unbounded handler pile-up. Sent outside conns_m_ (a fresh socket's
  // send buffer is empty, but a hostile peer must not stall the accept
  // loop while holding the connection-table lock); failures are the
  // peer's problem.
  try {
    send_frame(client, error_payload(ErrorCode::Busy,
                                     "connection limit reached, retry later"),
               options_.io_timeout_ms);
  } catch (...) {
  }
}

void Server::reap_finished_conns() {
  std::list<Conn> finished;
  {
    std::lock_guard<std::mutex> lk(conns_m_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->done.load(std::memory_order_acquire)) {
        finished.splice(finished.end(), conns_, it++);
      } else {
        ++it;
      }
    }
  }
  // Join outside conns_m_: a handler flags done (under the lock) as its
  // final statement, so these joins only wait out the thread's return.
  for (auto& conn : finished) {
    if (conn.th.joinable()) conn.th.join();
  }
}

void Server::reaper_loop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lk(conns_m_);
      conns_cv_.wait(lk, [this] {
        if (stopping_.load(std::memory_order_relaxed)) return true;
        for (const auto& conn : conns_) {
          if (conn.done.load(std::memory_order_acquire)) return true;
        }
        return false;
      });
    }
    if (stopping_.load(std::memory_order_relaxed)) return;
    reap_finished_conns();
  }
  // Leftover entries (handlers still draining at shutdown) are joined by
  // wait() after every eraser thread is gone.
}

void Server::executor_loop() {
  while (auto id = queue_.pop()) {
    const auto job = find_job(*id);
    if (!job) continue;
    if (run_slice(*job)) {
      // More stripes remain: rotate to the back of the job's priority
      // level. Equal-priority jobs therefore interleave stripe by stripe;
      // a higher-priority submission preempts at the next boundary.
      if (!queue_.push(job->id, job->priority)) {
        // Re-enqueue raced shutdown — nothing will pop this job again.
        finish_cancelled(*job);
      }
    }
  }
}

std::shared_ptr<Server::Job> Server::find_job(std::uint64_t id) {
  std::lock_guard<std::mutex> lk(jobs_m_);
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

JobStatus Server::snapshot_locked(const Job& job) {
  JobStatus s;
  s.id = job.id;
  s.state = job.state;
  s.total = job.space.size();
  s.rows_done = job.rows.size();
  s.evaluated = job.stats.evaluated;
  s.cache_hits = job.stats.cache_hits;
  s.memo_hits = job.stats.memo_hits;
  s.slices = job.slices;
  s.error = job.error;
  return s;
}

bool Server::run_slice(Job& job) {
  if (job.cancel.load(std::memory_order_relaxed)) {
    finish_cancelled(job);
    return false;
  }
  {
    std::lock_guard<std::mutex> lk(job.m);
    if (is_terminal(job.state)) return false; // cancelled while queued
    if (job.state == JobState::Queued) {
      job.state = JobState::Running;
      job.cv.notify_all();
    }
  }
  if (!job.run) {
    const ExecOptions opt{.seed = job.seed, .threads = options_.threads,
                          .stripe_chunks = options_.stripe_chunks};
    job.run = std::make_unique<StripedRun>(*job.exp, job.space, opt, cache_);
  }
  try {
    job.run->step();
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lk(job.m);
      job.error = e.what();
      job.state = JobState::Failed;
      ++job.slices;
      job.cv.notify_all();
    }
    job.run.reset();
    return false;
  }
  const bool finished = job.run->finished();
  {
    std::lock_guard<std::mutex> lk(job.m);
    const auto& all = job.run->rows();
    for (std::size_t i = job.rows.size(); i < job.run->done_end(); ++i) {
      job.rows.push_back(all[i]);
    }
    job.stats = job.run->stats();
    ++job.slices;
    if (finished) job.state = JobState::Done;
    job.cv.notify_all();
  }
  if (finished) job.run.reset();
  return !finished;
}

void Server::finish_cancelled(Job& job) {
  {
    std::lock_guard<std::mutex> lk(job.m);
    if (!is_terminal(job.state)) {
      job.state = JobState::Cancelled;
      job.cv.notify_all();
    }
  }
  // Rows already streamed stay valid (and cached); the partial run state
  // is all that dies.
  job.run.reset();
}

void Server::handle_connection(Conn& conn) {
  util::Fd& fd = conn.fd;
  // Every receive and send carries the per-connection idle timeout: a peer
  // making no byte of progress for io_timeout_ms — half a header then
  // silence (slow loris), or a fetch reader that stopped draining — throws
  // ETIMEDOUT out of the frame loop and is evicted like any dead socket.
  const int t = options_.io_timeout_ms;
  try {
    const auto hello = recv_frame(fd, t);
    if (hello) {
      bool ok = false;
      {
        WireReader r(*hello);
        if (FrameType(r.u8()) != FrameType::Hello) {
          send_frame(fd, error_payload(ErrorCode::BadFrame,
                                       "expected Hello handshake"),
                     t);
        } else {
          const std::uint32_t version = r.u32();
          if (version != kProtocolVersion) {
            send_frame(fd, error_payload(
                               ErrorCode::BadVersion,
                               "protocol version " + std::to_string(version) +
                                   " unsupported, server speaks " +
                                   std::to_string(kProtocolVersion)),
                       t);
          } else {
            WireWriter w;
            w.u8(std::uint8_t(FrameType::HelloOk));
            w.u32(kProtocolVersion);
            w.str(options_.server_id);
            send_frame(fd, w.take(), t);
            ok = true;
          }
        }
      }
      if (ok) {
        while (auto payload = recv_frame(fd, t)) {
          if (!handle_frame(fd, *payload)) break;
        }
      }
    }
  } catch (const WireError&) {
    // Oversized/garbled framing: best-effort error, then drop the peer.
    try {
      send_frame(fd, error_payload(ErrorCode::BadFrame, "malformed frame"), t);
    } catch (...) {
    }
  } catch (const std::exception&) {
    // Socket torn down (peer died, idle timeout, or server stopping) —
    // nothing to reply to.
  }
  // Handler exit = connection over: release the fd now (not at server
  // shutdown — a daemon must not leak an fd per client for its lifetime)
  // and flag the entry, then wake the reaper so the slot is reclaimed
  // immediately, not at the next accept. Under conns_m_ so the close
  // cannot race request_stop()'s shutdown sweep.
  {
    std::lock_guard<std::mutex> lk(conns_m_);
    conn.fd.close();
    conn.done.store(true, std::memory_order_release);
  }
  conns_cv_.notify_all();
}

bool Server::handle_frame(util::Fd& fd, const std::string& payload) {
  WireReader r(payload);
  FrameType type;
  try {
    type = FrameType(r.u8());
  } catch (const WireError&) {
    send_frame(fd, error_payload(ErrorCode::BadFrame, "empty frame"),
               options_.io_timeout_ms);
    return true;
  }

  try {
    switch (type) {
      case FrameType::Submit: {
        const std::string exp_id = r.str();
        const std::uint32_t version = r.u32();
        const std::uint64_t seed = r.u64();
        const std::int32_t priority = r.i32();
        const bool has_space = r.u8() != 0;
        sweep::ParamSpace space;
        if (has_space) space = r.space();
        if (r.remaining() != 0) throw WireError("trailing bytes in Submit");

        const sweep::RowExperiment* exp = registry_.find(exp_id);
        if (exp == nullptr || (version != 0 && version != exp->version)) {
          send_frame(fd, error_payload(ErrorCode::UnknownExperiment,
                                       "no experiment '" + exp_id +
                                           "' at version " +
                                           std::to_string(version)),
                     options_.io_timeout_ms);
          return true;
        }
        if (!has_space) {
          if (!exp->default_space) {
            send_frame(fd, error_payload(ErrorCode::Internal,
                                         "experiment '" + exp_id +
                                             "' has no default space"),
                       options_.io_timeout_ms);
            return true;
          }
          try {
            space = exp->default_space();
          } catch (const std::exception& e) {
            send_frame(fd, error_payload(ErrorCode::Internal, e.what()),
                       options_.io_timeout_ms);
            return true;
          }
        }
        if (stopping_.load(std::memory_order_relaxed)) {
          send_frame(fd, error_payload(ErrorCode::ShuttingDown,
                                       "server is shutting down"),
                     options_.io_timeout_ms);
          return true;
        }

        auto job = std::make_shared<Job>();
        job->priority = priority;
        job->exp = exp;
        job->space = std::move(space);
        job->seed = seed;
        {
          std::lock_guard<std::mutex> lk(jobs_m_);
          job->id = next_job_id_++;
          jobs_.emplace(job->id, job);
        }
        if (!queue_.push(job->id, priority)) {
          // The push raced queue_.close(): make sure the job cannot sit
          // Queued forever.
          job->cancel.store(true, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lk(job->m);
          if (job->state == JobState::Queued) job->state = JobState::Cancelled;
          job->cv.notify_all();
        }
        WireWriter w;
        w.u8(std::uint8_t(FrameType::Submitted));
        w.u64(job->id);
        send_frame(fd, w.take(), options_.io_timeout_ms);
        return true;
      }

      case FrameType::Status:
      case FrameType::Cancel: {
        const std::uint64_t id = r.u64();
        if (r.remaining() != 0) throw WireError("trailing bytes");
        const auto job = find_job(id);
        if (!job) {
          send_frame(fd, error_payload(ErrorCode::UnknownJob,
                                       "no job " + std::to_string(id)),
                     options_.io_timeout_ms);
          return true;
        }
        JobStatus status;
        {
          if (type == FrameType::Cancel) {
            job->cancel.store(true, std::memory_order_relaxed);
          }
          std::lock_guard<std::mutex> lk(job->m);
          if (type == FrameType::Cancel && job->state == JobState::Queued) {
            job->state = JobState::Cancelled;
            job->cv.notify_all();
          }
          status = snapshot_locked(*job);
        }
        WireWriter w;
        w.u8(std::uint8_t(FrameType::StatusOk));
        write_status_body(w, status);
        send_frame(fd, w.take(), options_.io_timeout_ms);
        return true;
      }

      case FrameType::Fetch: {
        const std::uint64_t id = r.u64();
        if (r.remaining() != 0) throw WireError("trailing bytes in Fetch");
        const auto job = find_job(id);
        if (!job) {
          send_frame(fd, error_payload(ErrorCode::UnknownJob,
                                       "no job " + std::to_string(id)),
                     options_.io_timeout_ms);
          return true;
        }
        stream_fetch(fd, *job);
        return true;
      }

      case FrameType::ListExperiments: {
        if (r.remaining() != 0) throw WireError("trailing bytes");
        WireWriter w;
        w.u8(std::uint8_t(FrameType::ExperimentsOk));
        const auto& exps = registry_.all();
        w.u32(std::uint32_t(exps.size()));
        for (const auto& exp : exps) {
          w.str(exp.id);
          w.u32(exp.version);
          w.str(exp.description);
          std::uint64_t space_size = 0;
          if (exp.default_space) {
            try {
              space_size = exp.default_space().size();
            } catch (const std::exception&) {
              space_size = 0; // listing stays best-effort
            }
          }
          w.u64(space_size);
          w.u32(std::uint32_t(exp.columns.size()));
          for (const auto& col : exp.columns) w.str(col);
        }
        send_frame(fd, w.take(), options_.io_timeout_ms);
        return true;
      }

      case FrameType::Shutdown: {
        WireWriter w;
        w.u8(std::uint8_t(FrameType::ShutdownOk));
        send_frame(fd, w.take(), options_.io_timeout_ms);
        request_stop();
        return false;
      }

      default:
        send_frame(fd, error_payload(ErrorCode::BadFrame,
                                     "unexpected frame type " +
                                         std::to_string(int(type))),
                   options_.io_timeout_ms);
        return true;
    }
  } catch (const WireError& e) {
    send_frame(fd, error_payload(ErrorCode::BadFrame, e.what()),
               options_.io_timeout_ms);
    return true;
  }
}

void Server::stream_fetch(util::Fd& fd, Job& job) {
  {
    WireWriter w;
    w.u8(std::uint8_t(FrameType::TableBegin));
    w.u64(job.id);
    w.u32(std::uint32_t(job.exp->columns.size()));
    for (const auto& col : job.exp->columns) w.str(col);
    send_frame(fd, w.take(), options_.io_timeout_ms);
  }

  // Row frames (and the final TableEnd) are coalesced into writes of up
  // to kFlushBytes; each Row frame body is its record's cell bytes,
  // copied verbatim.
  constexpr std::size_t kFlushBytes = 64u << 10;
  std::string out;
  const auto flush = [&] {
    util::write_all(fd, out.data(), out.size(), options_.io_timeout_ms);
    out.clear();
  };
  std::size_t sent = 0;
  std::vector<RowRef> batch;
  while (true) {
    bool terminal = false;
    JobStatus final_status;
    {
      std::unique_lock<std::mutex> lk(job.m);
      job.cv.wait(lk, [&] {
        return job.rows.size() > sent || is_terminal(job.state);
      });
      batch.assign(job.rows.begin() + std::ptrdiff_t(sent), job.rows.end());
      terminal = is_terminal(job.state);
      if (terminal) final_status = snapshot_locked(job);
    }
    // Stream outside the job lock: a slow client must not stall the
    // executor's stripe hand-off. The rows live in the cache, immutable
    // and never erased, so no cache lock is needed either.
    for (const RowRef row : batch) {
      append_frame(out, FrameType::Row, row.cells());
      if (out.size() >= kFlushBytes) flush();
    }
    sent += batch.size();
    if (terminal) {
      WireWriter w;
      write_status_body(w, final_status);
      append_frame(out, FrameType::TableEnd, w.bytes());
      flush();
      return;
    }
    if (!out.empty()) flush();
  }
}

} // namespace mss::server
