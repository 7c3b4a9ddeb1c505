// Untraced runs: the timed windows behind the end-to-end metrics, their
// output checks against in-run sequential oracles, and the cold start that
// setup_s is made of.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "metrics/segmentation_metrics.h"
#include "open_loop.h"
#include "slic/slic_baseline.h"
#include "slic/temporal.h"

namespace perfbench {

namespace eng = sslic::engine;

namespace {

/// Quality of one labelling against its generator's ground truth.
struct Quality {
  double recall = 0.0;
  double use = 0.0;
  int scored = 0;

  void add(const sslic::LabelImage& labels, const sslic::LabelImage& truth) {
    recall += sslic::boundary_recall(labels, truth, 2);
    use += sslic::undersegmentation_error(labels, truth);
    ++scored;
  }
  void report(RunResult& result) const {
    const double n = std::max(scored, 1);
    result.add("boundary_recall", recall / n, "fraction");
    result.add("undersegmentation_error", use / n, "fraction");
  }
};

/// Median and p90 of the raw per-frame samples, with their count.
void add_latency(RunResult& result, const std::vector<double>& latency_ms) {
  const double p50 = quantile(latency_ms, 0.5);
  const double p90 = quantile(latency_ms, 0.9);
  std::printf("latency p50 %.3f ms, p90 %.3f ms (n=%zu samples)\n", p50, p90,
              latency_ms.size());
  result.add("latency_p50_ms", p50, "ms");
  result.add("latency_p90_ms", p90, "ms");
}

}  // namespace

RunResult run_streams(const WorkloadSpec& spec, const Inputs& inputs,
                      double seconds, const std::string& setup_out) {
  const sslic::SlicParams params = slic_params(spec);
  const int measured =
      std::max(1, static_cast<int>(std::lround(seconds * spec.ticks_per_s)));
  const int ticks = spec.warmup_ticks + measured;
  const int oracle_ticks = std::min(spec.oracle_ticks, ticks);
  const auto nstreams = static_cast<std::size_t>(spec.streams);

  // Sequential oracle: one TemporalSlic per stream over the leading ticks.
  // It runs before the window, which also warms the pool and allocator.
  std::vector<std::vector<std::uint64_t>> oracle(nstreams);
  for (int s = 0; s < spec.streams; ++s) {
    sslic::TemporalSlic temporal(params);
    for (int t = 0; t < oracle_ticks; ++t)
      oracle[static_cast<std::size_t>(s)].push_back(
          label_hash(temporal.next_frame(clip_frame(inputs, s, t).image).labels));
  }
  if (!setup_out.empty()) {
    SetupCase setup{spec.name, {}, {}};
    for (int s = 0; s < spec.streams; ++s) {
      setup.frames.push_back(clip_frame(inputs, s, 0).image);
      setup.expected.push_back(oracle[static_cast<std::size_t>(s)][0]);
    }
    write_setup_case(setup_out, setup);
  }

  const int clip_length = spec.scenes * spec.frames_per_scene;
  const auto scored = [&](int t) {
    const int k = t - spec.warmup_ticks;
    return k >= 0 && k % spec.quality_every == 0 &&
           k / spec.quality_every < clip_length;
  };
  std::vector<char> keep(static_cast<std::size_t>(ticks));
  for (int t = 0; t < ticks; ++t)
    keep[static_cast<std::size_t>(t)] = t < oracle_ticks || scored(t);
  const OpenLoopRun run = run_open_loop(spec, inputs, keep);

  RunResult result;
  result.attempted = nstreams * static_cast<std::size_t>(ticks);
  std::uint64_t dropped = 0;
  std::uint64_t missing = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t checked = 0;
  std::uint64_t completed = 0;
  std::vector<double> latency_ms;
  double last_done_ms = -std::numeric_limits<double>::infinity();
  Quality quality;
  for (int s = 0; s < spec.streams; ++s) {
    const StreamLog& log = *run.streams[static_cast<std::size_t>(s)];
    dropped += log.dropped.load();
    // The oracle saw every frame; after a shed the engine's warm state
    // follows a different sequence, so the comparison stops there.
    bool oracle_in_step = true;
    for (int t = 0; t < ticks; ++t) {
      const auto tu = static_cast<std::size_t>(t);
      if (log.admitted[tu] == 0) {
        oracle_in_step = false;
        continue;
      }
      if (std::isnan(log.done_ms[tu])) {
        ++missing;
        continue;
      }
      if (t < oracle_ticks && oracle_in_step) {
        ++checked;
        mismatched +=
            label_hash(log.labels[tu]) != oracle[static_cast<std::size_t>(s)][tu];
      }
      if (scored(t))
        quality.add(log.labels[tu],
                    inputs.truths[static_cast<std::size_t>(
                        clip_frame(inputs, s, t).truth)]);
      if (t < spec.warmup_ticks) continue;
      latency_ms.push_back(log.done_ms[tu] - run.due_ms[tu]);
      last_done_ms = std::max(last_done_ms, log.done_ms[tu]);
      ++completed;
    }
  }
  result.failed = run.shed + dropped + missing + mismatched;
  result.correct = mismatched == 0 && missing == 0;

  const double window_s =
      (last_done_ms - run.due_ms[static_cast<std::size_t>(spec.warmup_ticks)]) / 1e3;
  const double cpu_ms = run.usage_end.cpu_ms - run.usage_start.cpu_ms;
  const double frames = static_cast<double>(std::max<std::uint64_t>(completed, 1));
  std::printf(
      "%s: %d streams x %d measured ticks at %.3g/s after %d warm-up ticks; "
      "%llu completed, %llu shed, %llu dropped, %llu missing, %llu/%llu oracle "
      "mismatches\n",
      spec.name, spec.streams, measured, spec.ticks_per_s, spec.warmup_ticks,
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(run.shed),
      static_cast<unsigned long long>(dropped),
      static_cast<unsigned long long>(missing),
      static_cast<unsigned long long>(mismatched),
      static_cast<unsigned long long>(checked));
  std::printf("generator lateness p99 %.3f ms, max %.3f ms (n=%zu ticks)\n",
              quantile(run.lateness_ms, 0.99),
              *std::max_element(run.lateness_ms.begin(), run.lateness_ms.end()),
              run.lateness_ms.size());
  std::printf("quality scored on %d frames\n", quality.scored);

  result.add("fps", frames / window_s, "1/s");
  add_latency(result, latency_ms);
  result.add("cpu_ms_per_frame", cpu_ms / frames, "ms");
  result.add("peak_rss_mb", run.usage_end.peak_rss_mb, "MiB");
  quality.report(result);
  return result;
}

RunResult run_stills(const WorkloadSpec& spec, const Inputs& inputs,
                     double seconds, const std::string& setup_out) {
  const sslic::SlicParams params = slic_params(spec);
  const std::vector<Frame>& stills = inputs.clips[0];

  // Oracle: the same call on a one-thread pool, so the timed three-thread
  // calls are also checked across thread counts.
  sslic::ThreadPool::set_global_threads(1);
  std::vector<std::uint64_t> oracle;
  for (const Frame& still : stills)
    oracle.push_back(label_hash(sslic::CpaSlic(params).segment(still.image).labels));
  sslic::ThreadPool::set_global_threads(kPoolThreads);
  if (!setup_out.empty())
    write_setup_case(setup_out,
                     {spec.name, {stills[0].image}, {oracle[0]}});

  const sslic::CpaSlic cpa(params);
  RunResult result;
  std::uint64_t mismatched = 0;
  for (int i = 0; i < spec.warmup_ticks; ++i) {
    const std::size_t k = static_cast<std::size_t>(i) % stills.size();
    mismatched += label_hash(cpa.segment(stills[k].image).labels) != oracle[k];
  }

  std::vector<double> latency_ms;
  std::vector<sslic::LabelImage> kept(stills.size());
  double cpu_ms = 0.0;
  const double start = now_ms();
  for (std::size_t i = 0; now_ms() - start < seconds * 1e3; ++i) {
    const std::size_t k = i % stills.size();
    const Usage before = process_usage();
    const double begin = now_ms();
    sslic::Segmentation seg = cpa.segment(stills[k].image);
    latency_ms.push_back(now_ms() - begin);
    cpu_ms += process_usage().cpu_ms - before.cpu_ms;
    mismatched += label_hash(seg.labels) != oracle[k];
    if (kept[k].empty()) kept[k] = std::move(seg.labels);
  }
  const Usage end = process_usage();
  Quality quality;
  for (std::size_t k = 0; k < stills.size(); ++k)
    if (!kept[k].empty())
      quality.add(kept[k], inputs.truths[static_cast<std::size_t>(stills[k].truth)]);

  double busy_ms = 0.0;
  for (const double ms : latency_ms) busy_ms += ms;
  const auto images = static_cast<double>(latency_ms.size());
  result.attempted = static_cast<std::uint64_t>(spec.warmup_ticks) + latency_ms.size();
  result.failed = mismatched;
  result.correct = mismatched == 0;
  std::printf("%s: %zu timed images after %d warm-up, %zu distinct; %llu "
              "oracle mismatches; quality scored on %d images\n",
              spec.name, latency_ms.size(), spec.warmup_ticks, stills.size(),
              static_cast<unsigned long long>(mismatched), quality.scored);
  result.add("fps", images / (busy_ms / 1e3), "1/s");
  add_latency(result, latency_ms);
  result.add("cpu_ms_per_frame", cpu_ms / images, "ms");
  result.add("peak_rss_mb", end.peak_rss_mb, "MiB");
  quality.report(result);
  return result;
}

double cold_start(const WorkloadSpec& spec, const SetupCase& setup) {
  const double begin = now_ms();
  sslic::ThreadPool::set_global_threads(kPoolThreads);
  if (spec.streams == 0) {
    const sslic::Segmentation seg =
        sslic::CpaSlic(slic_params(spec)).segment(setup.frames[0]);
    const double seconds = (now_ms() - begin) / 1e3;
    return label_hash(seg.labels) == setup.expected[0] ? seconds : -1.0;
  }
  eng::StreamEngine engine;
  std::vector<eng::StreamId> ids;
  std::vector<eng::FrameTicket> tickets;
  for (std::size_t s = 0; s < setup.frames.size(); ++s)
    ids.push_back(engine.open_stream(stream_options(spec)));
  for (std::size_t s = 0; s < setup.frames.size(); ++s) {
    const eng::SubmitResult submitted = engine.submit(ids[s], setup.frames[s]);
    if (submitted.status != eng::SubmitStatus::kAdmitted) return -1.0;
    tickets.push_back(submitted.ticket);
  }
  for (const eng::FrameTicket& ticket : tickets)
    if (engine.wait(ticket) != eng::WaitStatus::kCompleted) return -1.0;
  const double seconds = (now_ms() - begin) / 1e3;
  for (std::size_t s = 0; s < ids.size(); ++s) {
    const sslic::Segmentation* seg = engine.last_result(ids[s]);
    if (seg == nullptr || label_hash(seg->labels) != setup.expected[s]) return -1.0;
  }
  return seconds;
}

}  // namespace perfbench
