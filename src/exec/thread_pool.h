#ifndef FIVM_EXEC_THREAD_POOL_H_
#define FIVM_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace fivm::exec {

/// A fixed-size worker pool with a barrier-style round API: RunTasks()
/// hands a closed set of tasks to the workers, the calling thread
/// participates in draining the queue, and the call returns once every task
/// has finished (rethrowing the first task exception, if any).
///
/// Workers are started once and parked on a condition variable between
/// rounds, so dispatching a batch costs two lock handoffs per worker rather
/// than thread creation. A pool of size 1 starts no workers at all and
/// RunTasks degenerates to a plain sequential loop — the parallel executor
/// relies on this to make thread-count sweeps comparable.
class ThreadPool {
 public:
  /// `threads` is the total number of threads that execute a round,
  /// including the caller; `threads - 1` workers are spawned. 0 is treated
  /// as 1.
  explicit ThreadPool(size_t threads)
      : thread_count_(threads == 0 ? 1 : threads) {
    workers_.reserve(thread_count_ - 1);
    for (size_t i = 1; i < thread_count_; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t thread_count() const { return thread_count_; }

  /// Runs every task to completion, caller thread included. Tasks of one
  /// round are claimed in index order; if any task throws, the first
  /// exception is rethrown here after the round completes.
  void RunTasks(std::vector<std::function<void()>> tasks) {
    if (tasks.empty()) return;
    if (workers_.empty()) {
      for (auto& t : tasks) t();
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_ = std::move(tasks);
      next_ = 0;
      remaining_ = tasks_.size();
      error_ = nullptr;
    }
    work_cv_.notify_all();
    Drain();
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
    tasks_.clear();
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

 private:
  /// Claims and runs queued tasks until the round's queue is exhausted.
  void Drain() {
    for (;;) {
      std::function<void()> task;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (next_ >= tasks_.size()) return;
        task = std::move(tasks_[next_++]);
      }
      try {
        task();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!error_) error_ = std::current_exception();
      }
      bool round_done;
      {
        std::lock_guard<std::mutex> lock(mu_);
        round_done = --remaining_ == 0;
      }
      if (round_done) done_cv_.notify_all();
    }
  }

  void WorkerLoop() {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock,
                      [this] { return stop_ || next_ < tasks_.size(); });
        if (stop_) return;
      }
      Drain();
    }
  }

  const size_t thread_count_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::function<void()>> tasks_;
  size_t next_ = 0;
  size_t remaining_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
};

}  // namespace fivm::exec

#endif  // FIVM_EXEC_THREAD_POOL_H_
