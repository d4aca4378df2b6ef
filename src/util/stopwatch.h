// Wall-clock stopwatch used for the measured component of the cost model
// (per-worker busy time) and for benchmark phase timings.
#pragma once

#include <chrono>
#include <ctime>

namespace s2::util {

// CPU time consumed by the calling thread, in seconds. On a machine with
// fewer cores than runnable threads, wall clock charges a thread for time it
// spent descheduled; per-thread CPU time is what the cost model's modeled
// parallel schedule needs (DESIGN.md §3).
inline double ThreadCpuSeconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
  }
#endif
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace s2::util
