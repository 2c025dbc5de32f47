// Blocking priority queue — the job scheduler of the mss-server daemon.
//
// Higher priority pops first; equal priorities pop in push order (a
// monotonic sequence number breaks ties, so the queue is a fair FIFO per
// priority level and starvation-free within one). close() wakes every
// waiter: pop() drains what was already queued, then returns nullopt —
// the natural shutdown protocol for a consumer loop.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

namespace mss::util {

template <typename T>
class PriorityBlockingQueue {
 public:
  /// Enqueues an item. Returns false (item dropped) after close() — a
  /// producer that must not lose work, like the executor re-enqueueing a
  /// sliced job at shutdown, uses the result to finalise the item itself;
  /// fire-and-forget producers may ignore it (their item would never be
  /// consumed anyway).
  bool push(T item, int priority) {
    {
      std::lock_guard<std::mutex> lk(m_);
      if (closed_) return false;
      heap_.push(Entry{priority, seq_++, std::move(item)});
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks for the next item: highest priority first, FIFO within a
  /// priority. Returns nullopt once the queue is closed *and* drained.
  [[nodiscard]] std::optional<T> pop() {
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, [&] { return closed_ || !heap_.empty(); });
    if (heap_.empty()) return std::nullopt;
    // priority_queue::top is const; the item is moved out via const_cast —
    // safe because pop() removes the entry before anyone can observe it.
    T item = std::move(const_cast<Entry&>(heap_.top()).item);
    heap_.pop();
    return item;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lk(m_);
    return heap_.size();
  }

  /// Wakes all waiters; subsequent pops drain, then return nullopt.
  void close() {
    {
      std::lock_guard<std::mutex> lk(m_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lk(m_);
    return closed_;
  }

 private:
  struct Entry {
    int priority;
    std::uint64_t seq;
    T item;
  };
  struct Order {
    // std::priority_queue is a max-heap on this "less-than": an entry is
    // worse when its priority is lower, or equal-priority but pushed later.
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.priority != b.priority) return a.priority < b.priority;
      return a.seq > b.seq;
    }
  };

  mutable std::mutex m_;
  std::condition_variable cv_;
  std::priority_queue<Entry, std::vector<Entry>, Order> heap_;
  std::uint64_t seq_ = 0;
  bool closed_ = false;
};

} // namespace mss::util
