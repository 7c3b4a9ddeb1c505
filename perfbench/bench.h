// Shared pieces of the frame-path benchmark binary: workload parameters,
// seeded inputs, statistics over raw samples, and the result record that
// main.cpp prints as JSON. README.md explains the workloads and metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "image/image.h"
#include "slic/types.h"

namespace perfbench {

/// Threads of the shared pool: the engine's scheduler (or the calling)
/// thread plus two workers, leaving one core of a 4-core host to the load
/// generator.
inline constexpr int kPoolThreads = 3;

/// Fixed parameters of one workload.
struct WorkloadSpec {
  const char* name = "";
  int width = 0;
  int height = 0;
  int superpixels = 0;
  double subsample_ratio = 1.0;
  /// Camera streams fed in open loop; 0 for the closed-loop stills.
  int streams = 0;
  /// Open-loop tick rate: every stream submits one frame per tick.
  double ticks_per_s = 0.0;
  /// Ticks before the measured window (the cold first frame, then warm
  /// frames that grow the warm-path buffers).
  int warmup_ticks = 0;
  /// Leading ticks whose labels are checked against the sequential oracle.
  int oracle_ticks = 0;
  /// Every n-th measured tick is scored for quality, one clip length of
  /// them. n is coprime with the clip length, so the scored frames cover
  /// every clip position once whichever scene a seed opens the clip with.
  int quality_every = 0;
  /// Distinct scenes per stream clip (or per stills set).
  int scenes = 0;
  /// Frames per scene: camera frames between cuts, or noise variants of
  /// each still.
  int frames_per_scene = 0;
  /// The traced run replays at most this many ticks (images for stills).
  int traced_ticks = 0;
};

[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);
[[nodiscard]] sslic::SlicParams slic_params(const WorkloadSpec& spec);

/// One generated input: the RGB frame and the index of the ground-truth
/// partition it was rendered from.
struct Frame {
  sslic::RgbImage image;
  int truth = 0;
};

/// All inputs of a run, made from the seed before anything is timed. A
/// stream cycles through its clip; stills cycle through `clips[0]`.
struct Inputs {
  std::vector<sslic::LabelImage> truths;
  std::vector<std::vector<Frame>> clips;
};

[[nodiscard]] Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// 64-bit FNV-1a over the label words; equal hashes stand for byte-equal
/// label maps in the oracle checks.
[[nodiscard]] std::uint64_t label_hash(const sslic::LabelImage& labels);

/// Milliseconds on the steady clock since an arbitrary fixed origin.
[[nodiscard]] double now_ms();

/// Process user+system CPU time and peak resident set, from getrusage.
struct Usage {
  double cpu_ms = 0.0;
  double peak_rss_mb = 0.0;
};
[[nodiscard]] Usage process_usage();

/// Linear-interpolated quantile of raw samples (q in [0, 1]).
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Named metrics of one run, printed as the final JSON line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Frame-path runs. `seconds` is the measured window of the untraced runs;
/// `setup_out` names the file the untraced stream/still runs write their
/// first frames to, for the separate cold-start processes.
[[nodiscard]] RunResult run_streams(const WorkloadSpec& spec,
                                    const Inputs& inputs, double seconds,
                                    const std::string& setup_out);
[[nodiscard]] RunResult trace_streams(const WorkloadSpec& spec,
                                      const Inputs& inputs, double seconds);
[[nodiscard]] RunResult run_stills(const WorkloadSpec& spec,
                                   const Inputs& inputs, double seconds,
                                   const std::string& setup_out);
[[nodiscard]] RunResult trace_stills(const WorkloadSpec& spec,
                                     const Inputs& inputs, double seconds);

/// First frame of every stream (or the first still) and the oracle hash of
/// its labels: what one cold start needs.
struct SetupCase {
  std::string workload;
  std::vector<sslic::RgbImage> frames;
  std::vector<std::uint64_t> expected;
};

void write_setup_case(const std::string& path, const SetupCase& setup);
[[nodiscard]] bool read_setup_case(const std::string& path, SetupCase* setup);

/// One cold start in a fresh process: from pool sizing until every
/// stream's first frame (or the first still) has completed. Returns the
/// seconds taken, or a negative value when an output differs from the
/// oracle.
[[nodiscard]] double cold_start(const WorkloadSpec& spec,
                                const SetupCase& setup);

}  // namespace perfbench
