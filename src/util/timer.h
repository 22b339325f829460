#ifndef FIVM_UTIL_TIMER_H_
#define FIVM_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace fivm::util {

/// Wall-clock stopwatch used by the benchmark harnesses.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace fivm::util

#endif  // FIVM_UTIL_TIMER_H_
