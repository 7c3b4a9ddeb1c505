// Traced runs: the per-layer breakdown. Each replays a slice of its
// workload twice per frame — once through the untraced direct call
// (TemporalSlic::next_frame or CpaSlic::segment) and once stage by stage
// through the public calls that make it up — and, for the camera
// workloads, first through the engine in open loop. Every copy of a
// frame's labels must be byte-identical; the per-layer metrics are medians
// per frame over the measured ticks.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench.h"
#include "color/color_convert.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "open_loop.h"
#include "slic/connectivity.h"
#include "slic/grid.h"
#include "slic/iteration_scratch.h"
#include "slic/slic_baseline.h"
#include "slic/subsampled.h"
#include "slic/temporal.h"

namespace perfbench {

namespace eng = sslic::engine;

namespace {

/// Per-frame samples of every per-layer metric, by metric name.
class LayerSamples {
 public:
  void add(const std::string& name, double value) { samples_[name].push_back(value); }
  [[nodiscard]] double median_of(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : median(it->second);
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Replays a stream (warm-started PPA, like TemporalSlic) or cold CPA
/// stills stage by stage: conversion, the segmenter's *_into call without
/// connectivity, then connectivity. Seeding is timed on its own on every
/// frame's Lab; on cold frames it also runs inside the segmenter call.
class StageReplay {
 public:
  StageReplay(const sslic::SlicParams& params, bool cpa) : cpa_(cpa) {
    cold_ = params;
    cold_.enforce_connectivity = false;
    warm_ = cold_;
    warm_.max_iterations = sslic::TemporalSlic::default_warm_iterations(params);
    marks_.reserve(64);
  }

  /// Replays one frame and records its stage samples.
  void frame(const sslic::RgbImage& image, double direct_ms,
             LayerSamples* out) {
    marks_.clear();
    const sslic::IterationCallback mark =
        [this](const sslic::IterationStats&, const sslic::LabelImage&,
               const std::vector<sslic::ClusterCenter>&) {
          marks_.push_back(now_ms());
        };
    // Stills mirror CpaSlic::segment, which converts into a fresh Lab image
    // and segments into a fresh result and scratch on every call; streams
    // reuse them across frames like TemporalSlic.
    if (cpa_) {
      lab_ = {};
      result_ = {};
      scratch_ = {};
    }
    sslic::Instrumentation instr;
    const double t0 = now_ms();
    sslic::srgb_to_lab(image, lab_);
    const double t1 = now_ms();
    const bool warm = !cpa_ && !previous_.empty();
    if (cpa_) {
      sslic::CpaSlic(cold_).segment_lab_into(lab_, result_, scratch_, mark, &instr);
    } else if (warm) {
      sslic::PpaSlic(warm_).segment_lab_warm_into(lab_, previous_, result_,
                                                  scratch_, mark, &instr);
    } else {
      sslic::PpaSlic(cold_).segment_lab_into(lab_, result_, scratch_, mark,
                                             &instr);
    }
    const double t2 = now_ms();
    const sslic::ConnectivityResult connectivity = sslic::enforce_connectivity(
        result_.labels, cold_.num_superpixels, &scratch_.connectivity);
    const double t3 = now_ms();
    if (!cpa_) previous_ = result_.centers;

    const sslic::CenterGrid grid(lab_.width(), lab_.height(),
                                 cold_.num_superpixels);
    const double s0 = now_ms();
    sslic::seed_centers(grid, lab_, cold_.perturb_centers, seeds_, gradient_);
    const double t4 = now_ms();
    const double seed_ms = t4 - s0;

    const double stages_ms = (t1 - t0) + (t2 - t1) + (t3 - t2);
    out->add("color.convert_ms", t1 - t0);
    out->add("slic.seed_ms", seed_ms);
    out->add("slic.iterate_ms", (t2 - t1) - (warm ? 0.0 : seed_ms));
    for (std::size_t i = 1; i < marks_.size(); ++i)
      out->add("slic.iter_ms", marks_[i] - marks_[i - 1]);
    out->add("slic.iterations", result_.iterations_run);
    out->add("slic.connectivity_ms", t3 - t2);
    out->add("slic.connectivity_moved_frac",
             static_cast<double>(connectivity.pixels_moved) /
                 static_cast<double>(lab_.size()));
    out->add("slic.analytic_bytes_per_frame",
             static_cast<double>(instr.traffic.total()));
    out->add("slic.analytic_ops_per_frame",
             static_cast<double>(instr.ops.total_ops()));
    out->add("slic.other_frac", 1.0 - stages_ms / direct_ms);
    // Everything the traced replay spends on the frame, the standalone
    // seeding and the iteration callbacks included.
    out->add("trace.overhead_frac", (t4 - t0) / direct_ms - 1.0);
  }

  [[nodiscard]] const sslic::LabelImage& labels() const { return result_.labels; }

 private:
  bool cpa_;
  sslic::SlicParams cold_;
  sslic::SlicParams warm_;
  sslic::LabImage lab_;
  sslic::Segmentation result_;
  sslic::IterationScratch scratch_;
  std::vector<sslic::ClusterCenter> previous_;
  std::vector<sslic::ClusterCenter> seeds_;
  sslic::Image<float> gradient_;
  std::vector<double> marks_;
};

/// Pool activity over one call: the busy share (sum of WorkerStats::busy_ns
/// deltas over threads x wall time) and the jobs dispatched.
struct PoolDelta {
  double busy_frac = 0.0;
  std::uint64_t jobs = 0;
};

class PoolMeter {
 public:
  void start() {
    before_ = sslic::ThreadPool::global().stats();
    jobs_ = sslic::ThreadPool::global().jobs_run();
  }
  [[nodiscard]] PoolDelta stop(double wall_ms) const {
    const sslic::ThreadPool& pool = sslic::ThreadPool::global();
    const std::vector<sslic::ThreadPool::WorkerStats> after = pool.stats();
    std::uint64_t busy_ns = 0;
    for (std::size_t i = 0; i < after.size() && i < before_.size(); ++i)
      busy_ns += after[i].busy_ns - before_[i].busy_ns;
    return {static_cast<double>(busy_ns) / 1e6 /
                (static_cast<double>(pool.threads()) * wall_ms),
            pool.jobs_run() - jobs_};
  }

 private:
  std::vector<sslic::ThreadPool::WorkerStats> before_;
  std::uint64_t jobs_ = 0;
};

void report(const LayerSamples& samples, RunResult& result) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"color.convert_ms", "ms"},
      {"slic.seed_ms", "ms"},
      {"slic.iterate_ms", "ms"},
      {"slic.iter_ms", "ms"},
      {"slic.iterations", "count"},
      {"slic.connectivity_ms", "ms"},
      {"slic.connectivity_moved_frac", "fraction"},
      {"slic.analytic_bytes_per_frame", "B"},
      {"slic.analytic_ops_per_frame", "ops"},
      {"slic.other_frac", "fraction"},
      {"pool.jobs_per_frame", "count"},
      {"pool.busy_frac", "fraction"},
      {"engine.submit_us", "us"},
      {"engine.queue_ms", "ms"},
      {"engine.batch_frames", "count"},
      {"engine.service_ms", "ms"},
      {"engine.segment_vs_direct", "ratio"},
      {"trace.overhead_frac", "fraction"},
  };
  for (const auto& [name, unit] : kLayers)
    result.add(name, samples.median_of(name), unit);
}

}  // namespace

RunResult trace_streams(const WorkloadSpec& spec, const Inputs& inputs,
                        double seconds) {
  const sslic::SlicParams params = slic_params(spec);
  const int ticks = std::min(
      spec.traced_ticks,
      spec.warmup_ticks +
          std::max(1, static_cast<int>(std::lround(seconds * spec.ticks_per_s))));
  const auto nticks = static_cast<std::size_t>(ticks);
  const OpenLoopRun run = run_open_loop(spec, inputs, std::vector<char>(nticks, 1));

  LayerSamples samples;
  RunResult result;
  result.attempted = static_cast<std::uint64_t>(spec.streams) * nticks;
  result.failed = run.shed;
  const double frames =
      static_cast<double>(run.stats_end.frames - run.stats_start.frames);
  samples.add("engine.batch_frames",
              frames / static_cast<double>(std::max<std::uint64_t>(
                           run.stats_end.batches - run.stats_start.batches, 1)));
  samples.add("pool.jobs_per_frame",
              static_cast<double>(run.jobs_end - run.jobs_start) /
                  std::max(frames, 1.0));

  // Direct calls and stage replays of the same frames, interleaved per
  // frame so host drift hits both alike. Frames the engine shed are skipped
  // so every path sees the same frame sequence.
  std::vector<sslic::TemporalSlic> direct;
  std::vector<StageReplay> replay;
  for (int s = 0; s < spec.streams; ++s) {
    direct.emplace_back(params);
    replay.emplace_back(params, /*cpa=*/false);
  }
  PoolMeter pool;
  std::uint64_t mismatched = 0;
  for (int t = 0; t < ticks; ++t) {
    const auto tu = static_cast<std::size_t>(t);
    const bool measured = t >= spec.warmup_ticks;
    for (int s = 0; s < spec.streams; ++s) {
      const auto su = static_cast<std::size_t>(s);
      const StreamLog& log = *run.streams[su];
      if (log.admitted[tu] == 0) continue;
      if (std::isnan(log.done_ms[tu])) {
        ++result.failed;
        continue;
      }
      const sslic::RgbImage& image = clip_frame(inputs, s, t).image;
      pool.start();
      const double begin = now_ms();
      const sslic::Segmentation& seg = direct[su].next_frame(image);
      const double direct_ms = now_ms() - begin;
      const PoolDelta activity = pool.stop(direct_ms);
      LayerSamples discarded;
      replay[su].frame(image, direct_ms, measured ? &samples : &discarded);
      const bool same = seg.labels == log.labels[tu] &&
                        replay[su].labels() == log.labels[tu];
      mismatched += same ? 0 : 1;
      if (!measured) continue;
      samples.add("pool.busy_frac", activity.busy_frac);
      samples.add("engine.submit_us", log.submit_us[tu]);
      samples.add("engine.queue_ms", log.queue_ms[tu]);
      samples.add("engine.service_ms", log.service_ms[tu]);
      samples.add("engine.segment_vs_direct", log.service_ms[tu] / direct_ms);
    }
  }
  result.failed += mismatched;
  result.correct = mismatched == 0;
  std::printf("%s traced: %d streams x %d ticks (%d warm-up) through the "
              "engine, direct calls and stage replays; %llu shed, %llu "
              "label mismatches\n",
              spec.name, spec.streams, ticks, spec.warmup_ticks,
              static_cast<unsigned long long>(run.shed),
              static_cast<unsigned long long>(mismatched));
  report(samples, result);
  return result;
}

RunResult trace_stills(const WorkloadSpec& spec, const Inputs& inputs,
                       double /*seconds*/) {
  const sslic::SlicParams params = slic_params(spec);
  const std::vector<Frame>& stills = inputs.clips[0];
  const sslic::CpaSlic direct(params);
  StageReplay replay(params, /*cpa=*/true);

  // The timed stills bypass the engine; the traced run also sends them
  // through a cold CPA stream to show what the engine layer would add.
  eng::StreamEngine engine;
  eng::StreamOptions options;
  options.params = params;
  options.algorithm = eng::StreamAlgorithm::kCpa;
  options.temporal_warm = false;
  double queue_ms = 0.0;
  double service_ms = 0.0;
  options.on_complete = [&](const eng::FrameResult& done) {
    queue_ms = done.queue_ms;
    service_ms = done.latency_ms - done.queue_ms;
  };
  const eng::StreamId stream = engine.open_stream(std::move(options));

  LayerSamples samples;
  RunResult result;
  PoolMeter pool;
  std::uint64_t jobs = 0;
  std::uint64_t mismatched = 0;
  int measured = 0;
  for (int i = 0; i < spec.traced_ticks; ++i) {
    const sslic::RgbImage& image =
        stills[static_cast<std::size_t>(i) % stills.size()].image;
    const bool counted = i >= spec.warmup_ticks;
    pool.start();
    const double begin = now_ms();
    const sslic::Segmentation seg = direct.segment(image);
    const double direct_ms = now_ms() - begin;
    const PoolDelta activity = pool.stop(direct_ms);
    LayerSamples discarded;
    replay.frame(image, direct_ms, counted ? &samples : &discarded);

    const double submit_begin = now_ms();
    const eng::SubmitResult submitted = engine.submit(stream, image);
    const double submit_us = (now_ms() - submit_begin) * 1e3;
    const bool served = submitted.status == eng::SubmitStatus::kAdmitted &&
                        engine.wait(submitted.ticket) == eng::WaitStatus::kCompleted;
    engine.drain();  // the completion callback has run
    const sslic::Segmentation* via_engine = engine.last_result(stream);
    const bool same = served && via_engine != nullptr &&
                      via_engine->labels == seg.labels &&
                      replay.labels() == seg.labels;
    mismatched += same ? 0 : 1;
    ++result.attempted;
    if (!counted) continue;
    ++measured;
    jobs += activity.jobs;
    samples.add("pool.busy_frac", activity.busy_frac);
    samples.add("engine.submit_us", submit_us);
    samples.add("engine.queue_ms", queue_ms);
    samples.add("engine.service_ms", service_ms);
    samples.add("engine.segment_vs_direct", service_ms / direct_ms);
  }
  const eng::EngineStats stats = engine.stats();
  samples.add("engine.batch_frames",
              static_cast<double>(stats.frames) /
                  static_cast<double>(std::max<std::uint64_t>(stats.batches, 1)));
  samples.add("pool.jobs_per_frame",
              static_cast<double>(jobs) / std::max(measured, 1));
  result.failed = mismatched;
  result.correct = mismatched == 0;
  std::printf("%s traced: %d images (%d warm-up) through direct calls, stage "
              "replays and a CPA engine stream; %llu label mismatches\n",
              spec.name, spec.traced_ticks, spec.warmup_ticks,
              static_cast<unsigned long long>(mismatched));
  report(samples, result);
  return result;
}

}  // namespace perfbench
