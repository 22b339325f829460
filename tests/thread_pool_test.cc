#include "src/exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace fivm::exec {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> sum{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 1; i <= 100; ++i) {
    tasks.push_back([&sum, i] { sum.fetch_add(i); });
  }
  pool.RunTasks(std::move(tasks));
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::thread::id caller = std::this_thread::get_id();
  bool same_thread = false;
  std::vector<std::function<void()>> tasks;
  tasks.push_back([&] { same_thread = caller == std::this_thread::get_id(); });
  pool.RunTasks(std::move(tasks));
  EXPECT_TRUE(same_thread);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  int ran = 0;
  std::vector<std::function<void()>> tasks;
  tasks.push_back([&] { ++ran; });
  pool.RunTasks(std::move(tasks));
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPoolTest, ReusableAcrossRounds) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 7; ++i) {
      tasks.push_back([&total] { total.fetch_add(1); });
    }
    pool.RunTasks(std::move(tasks));
  }
  EXPECT_EQ(total.load(), 350);
}

TEST(ThreadPoolTest, CallerParticipatesInRound) {
  // With n tasks that all block until n threads have arrived, the round can
  // only finish if caller + workers all execute tasks concurrently.
  constexpr int kThreads = 4;
  ThreadPool pool(kThreads);
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  std::set<std::thread::id> ids;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < kThreads; ++i) {
    tasks.push_back([&] {
      std::unique_lock<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
      if (++arrived == kThreads) {
        cv.notify_all();
      } else {
        // Bounded wait so a buggy (serializing) pool fails instead of
        // deadlocking the test binary.
        cv.wait_for(lock, std::chrono::seconds(30),
                    [&] { return arrived == kThreads; });
      }
    });
  }
  pool.RunTasks(std::move(tasks));
  EXPECT_EQ(arrived, kThreads);
  EXPECT_EQ(ids.size(), static_cast<size_t>(kThreads));
}

TEST(ThreadPoolTest, FirstExceptionPropagates) {
  ThreadPool pool(2);
  std::vector<std::function<void()>> tasks;
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([&ran, i] {
      ran.fetch_add(1);
      if (i == 3) throw std::runtime_error("task failed");
    });
  }
  EXPECT_THROW(pool.RunTasks(std::move(tasks)), std::runtime_error);
  // The round still ran to completion before rethrowing.
  EXPECT_EQ(ran.load(), 8);

  // The pool remains usable after an exception.
  std::vector<std::function<void()>> more;
  more.push_back([&ran] { ran.fetch_add(1); });
  pool.RunTasks(std::move(more));
  EXPECT_EQ(ran.load(), 9);
}

TEST(ThreadPoolTest, EmptyRoundIsNoOp) {
  ThreadPool pool(2);
  pool.RunTasks({});
}

}  // namespace
}  // namespace fivm::exec
