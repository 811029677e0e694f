#pragma once
// Wall-clock stopwatch for benchmarks and examples.

#include <chrono>

namespace hpbdc {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void reset() noexcept { start_ = Clock::now(); }

  double elapsed_sec() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double elapsed_ms() const noexcept { return elapsed_sec() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace hpbdc
