// PriorityBlockingQueue: ordering, fairness, blocking and shutdown drain.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "util/blocking_queue.hpp"

namespace {

using mss::util::PriorityBlockingQueue;

TEST(PriorityBlockingQueue, HigherPriorityPopsFirst) {
  PriorityBlockingQueue<int> q;
  q.push(1, /*priority=*/0);
  q.push(2, /*priority=*/5);
  q.push(3, /*priority=*/-3);
  q.push(4, /*priority=*/5);

  EXPECT_EQ(q.pop(), 2); // priority 5, pushed first
  EXPECT_EQ(q.pop(), 4); // priority 5, pushed second
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 3);
}

TEST(PriorityBlockingQueue, FifoWithinOnePriority) {
  PriorityBlockingQueue<int> q;
  for (int i = 0; i < 100; ++i) q.push(i, 7);
  for (int i = 0; i < 100; ++i) {
    const auto got = q.pop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, i);
  }
  q.close();
  EXPECT_FALSE(q.pop().has_value());
}

TEST(PriorityBlockingQueue, PopBlocksUntilPush) {
  PriorityBlockingQueue<int> q;
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    const auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 42);
    got.store(true);
  });
  // The consumer must still be waiting (best-effort check, no false
  // failures: only asserts the value arrives after the push).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  q.push(42, 0);
  consumer.join();
  EXPECT_TRUE(got.load());
}

TEST(PriorityBlockingQueue, CloseDrainsThenReturnsNullopt) {
  PriorityBlockingQueue<int> q;
  q.push(1, 0);
  q.push(2, 1);
  q.close();
  EXPECT_EQ(q.pop(), 2); // drained in priority order
  EXPECT_EQ(q.pop(), 1);
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.pop().has_value()); // stays closed
}

TEST(PriorityBlockingQueue, PushAfterCloseIsIgnoredAndReportsFalse) {
  PriorityBlockingQueue<int> q;
  EXPECT_TRUE(q.push(1, 0)); // open queue accepts
  q.close();
  // The executor's re-enqueue path relies on this false: a popped job
  // whose re-push is refused must be finished off, not silently lost.
  EXPECT_FALSE(q.push(2, 0));
  EXPECT_EQ(q.size(), 1u); // only the pre-close item
  EXPECT_EQ(q.pop(), 1);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(PriorityBlockingQueue, CloseWakesBlockedConsumers) {
  PriorityBlockingQueue<int> q;
  std::vector<std::thread> consumers;
  std::atomic<int> nullopts{0};
  for (int i = 0; i < 3; ++i) {
    consumers.emplace_back([&] {
      if (!q.pop().has_value()) nullopts.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(nullopts.load(), 3);
}

} // namespace
