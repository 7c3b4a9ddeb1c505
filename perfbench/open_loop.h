// Open-loop load generator for the camera workloads: one generator thread
// fires every stream at fixed ticks into one StreamEngine and records, per
// stream and tick, when the frame was due, when its completion callback
// ran, and (for chosen ticks) a copy of its labels.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench.h"
#include "engine/engine.h"

namespace perfbench {

/// Engine settings of a camera stream: warm-started S-SLIC PPA with the
/// shed policy and the default queue depth.
[[nodiscard]] sslic::engine::StreamOptions stream_options(
    const WorkloadSpec& spec);

/// What one stream saw, indexed by tick. done_ms is NaN for frames that
/// never completed.
struct StreamLog {
  std::vector<int> tick_of_seq;  ///< engine sequence -> tick
  std::vector<char> admitted;
  std::vector<double> done_ms;
  std::vector<double> submit_us;
  std::vector<double> queue_ms;
  std::vector<double> service_ms;
  /// Label copies taken in the callback; empty for ticks not kept.
  std::vector<sslic::LabelImage> labels;
  std::atomic<std::uint64_t> dropped{0};
};

struct OpenLoopRun {
  std::vector<double> due_ms;  ///< per tick
  std::vector<std::unique_ptr<StreamLog>> streams;
  std::vector<double> lateness_ms;  ///< generator wake-up minus due time
  std::uint64_t shed = 0;
  /// Snapshots at the first measured tick and after the final drain.
  Usage usage_start;
  Usage usage_end;
  std::uint64_t jobs_start = 0;
  std::uint64_t jobs_end = 0;
  sslic::engine::EngineStats stats_start;
  sslic::engine::EngineStats stats_end;
};

/// Runs `keep.size()` ticks; ticks >= spec.warmup_ticks form the measured
/// window, and the labels of tick t are copied when keep[t] is set.
[[nodiscard]] OpenLoopRun run_open_loop(const WorkloadSpec& spec,
                                        const Inputs& inputs,
                                        const std::vector<char>& keep);

/// The frame stream `s` submits at tick `t` (clips repeat).
[[nodiscard]] inline const Frame& clip_frame(const Inputs& inputs, int s,
                                             int t) {
  const auto& clip = inputs.clips[static_cast<std::size_t>(s)];
  return clip[static_cast<std::size_t>(t) % clip.size()];
}

}  // namespace perfbench
