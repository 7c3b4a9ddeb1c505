// Wall-clock stopwatch used by the benches, the examples and the engine's
// frame clock. Segmenter stages are timed by trace::Interval instead.
#pragma once

#include <chrono>

namespace sslic {

/// Monotonic wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch();

  /// Restarts the stopwatch.
  void reset();

  /// Elapsed time since construction/reset, in milliseconds.
  [[nodiscard]] double elapsed_ms() const;

  /// Elapsed time since construction/reset, in seconds.
  [[nodiscard]] double elapsed_s() const;

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace sslic
