#include "common/stopwatch.h"

namespace sslic {

Stopwatch::Stopwatch() : start_(std::chrono::steady_clock::now()) {}

void Stopwatch::reset() { start_ = std::chrono::steady_clock::now(); }

double Stopwatch::elapsed_ms() const {
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(now - start_).count();
}

double Stopwatch::elapsed_s() const { return elapsed_ms() / 1000.0; }

}  // namespace sslic
