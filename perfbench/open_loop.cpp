#include "open_loop.h"

#include <chrono>
#include <limits>
#include <thread>

#include "common/thread_pool.h"

namespace perfbench {

namespace eng = sslic::engine;

eng::StreamOptions stream_options(const WorkloadSpec& spec) {
  eng::StreamOptions options;
  options.params = slic_params(spec);
  options.algorithm = eng::StreamAlgorithm::kPpa;
  options.temporal_warm = true;
  options.policy = eng::AdmissionPolicy::kShed;
  return options;
}

OpenLoopRun run_open_loop(const WorkloadSpec& spec, const Inputs& inputs,
                          const std::vector<char>& keep) {
  const int ticks = static_cast<int>(keep.size());
  const auto nticks = keep.size();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  OpenLoopRun run;
  run.due_ms.assign(nticks, nan);
  for (int s = 0; s < spec.streams; ++s) {
    auto log = std::make_unique<StreamLog>();
    log->tick_of_seq.assign(nticks + 1, -1);
    log->admitted.assign(nticks, 0);
    log->done_ms.assign(nticks, nan);
    log->submit_us.assign(nticks, nan);
    log->queue_ms.assign(nticks, nan);
    log->service_ms.assign(nticks, nan);
    log->labels.resize(nticks);
    for (std::size_t t = 0; t < nticks; ++t)
      if (keep[t] != 0) log->labels[t] = sslic::LabelImage(spec.width, spec.height);
    run.streams.push_back(std::move(log));
  }
  run.lateness_ms.reserve(nticks);

  sslic::ThreadPool& pool = sslic::ThreadPool::global();
  // The engine is local: it and its callbacks end before the logs they
  // write to, which live on in `run`.
  eng::StreamEngine engine;
  std::vector<eng::StreamId> ids;
  for (int s = 0; s < spec.streams; ++s) {
    StreamLog* log = run.streams[static_cast<std::size_t>(s)].get();
    eng::StreamOptions options = stream_options(spec);
    options.on_complete = [log](const eng::FrameResult& result) {
      if (result.dropped) {
        log->dropped.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      const double done = now_ms();
      const auto t = static_cast<std::size_t>(
          log->tick_of_seq[static_cast<std::size_t>(result.ticket.sequence)]);
      log->done_ms[t] = done;
      log->queue_ms[t] = result.queue_ms;
      log->service_ms[t] = result.latency_ms - result.queue_ms;
      if (!log->labels[t].empty()) log->labels[t] = result.segmentation->labels;
    };
    ids.push_back(engine.open_stream(std::move(options)));
  }

  // One generator thread, sleeping to each tick's due time and then
  // submitting every stream's frame one after another.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(50);
  const double origin_ms =
      std::chrono::duration<double, std::milli>(origin.time_since_epoch()).count();
  const std::chrono::duration<double, std::milli> period(1000.0 /
                                                         spec.ticks_per_s);
  std::thread generator([&] {
    std::vector<std::uint64_t> next_seq(static_cast<std::size_t>(spec.streams), 1);
    for (int t = 0; t < ticks; ++t) {
      const auto tu = static_cast<std::size_t>(t);
      const auto due = origin + std::chrono::duration_cast<Clock::duration>(
                                    period * static_cast<double>(t));
      std::this_thread::sleep_until(due);
      run.due_ms[tu] = origin_ms + period.count() * static_cast<double>(t);
      run.lateness_ms.push_back(now_ms() - run.due_ms[tu]);
      if (t == spec.warmup_ticks) {
        run.usage_start = process_usage();
        run.jobs_start = pool.jobs_run();
        run.stats_start = engine.stats();
      }
      for (int s = 0; s < spec.streams; ++s) {
        const auto su = static_cast<std::size_t>(s);
        StreamLog& log = *run.streams[su];
        // Written before submit(): the engine's lock orders it before the
        // completion callback that reads it.
        log.tick_of_seq[next_seq[su]] = t;
        const double begin = now_ms();
        const eng::SubmitResult submitted =
            engine.submit(ids[su], clip_frame(inputs, s, t).image);
        log.submit_us[tu] = (now_ms() - begin) * 1e3;
        if (submitted.status == eng::SubmitStatus::kAdmitted) {
          log.admitted[tu] = 1;
          ++next_seq[su];
        } else {
          ++run.shed;
        }
      }
    }
  });
  generator.join();
  engine.drain();
  run.usage_end = process_usage();
  run.jobs_end = pool.jobs_run();
  run.stats_end = engine.stats();
  return run;
}

}  // namespace perfbench
