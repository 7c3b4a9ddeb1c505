// Tests for the multi-stream segmentation engine (engine/engine.h):
//
//  - per-stream byte-identity: frames interleaved across K streams through
//    the engine produce labels and centers byte-identical to K independent
//    sequential TemporalSlic runs (CPA streams: plain CpaSlic calls),
//    across fusion x thread counts (the engine-level face of the
//    determinism contract).
//  - scene cuts: reset_stream() applies in submission order and survives
//    drop-oldest evicting the frame that carried it.
//  - zero-allocation steady state across all active streams, proven by a
//    counting global operator new installed in this binary.
//  - admission control: shed rejects at the bound, drop-oldest evicts the
//    oldest queued (never in-flight) frame and keeps the surviving chain
//    byte-identical, block backpressures the producer until space frees.
//  - ops plane: per-instance metric names (two engines never alias) and
//    the /statusz engine section.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_counter.h"
#include "common/check.h"
#include "common/ops_server.h"
#include "common/simd.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "dataset/synthetic.h"
#include "engine/engine.h"
#include "slic/assign_kernels.h"
#include "slic/fusion.h"
#include "slic/slic_baseline.h"
#include "slic/temporal.h"
#include "slic/types.h"

// Every allocation in this binary bumps sslic::alloc_counter — the
// zero-allocation steady-state assertions below depend on it.
SSLIC_INSTALL_COUNTING_ALLOCATOR();

namespace sslic {
namespace {

using engine::AdmissionPolicy;
using engine::FrameResult;
using engine::FrameTicket;
using engine::StreamEngine;
using engine::StreamId;
using engine::StreamOptions;
using engine::SubmitStatus;
using engine::WaitStatus;

struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { ThreadPool::set_global_threads(0); }
};

void expect_identical(const Segmentation& got, const Segmentation& want,
                      const std::string& what) {
  EXPECT_EQ(got.iterations_run, want.iterations_run) << what;
  ASSERT_EQ(got.labels.width(), want.labels.width()) << what;
  ASSERT_EQ(got.labels.height(), want.labels.height()) << what;
  EXPECT_TRUE(std::equal(got.labels.pixels().begin(),
                         got.labels.pixels().end(),
                         want.labels.pixels().begin()))
      << what << ": labels differ";
  ASSERT_EQ(got.centers.size(), want.centers.size()) << what;
  EXPECT_EQ(0, std::memcmp(got.centers.data(), want.centers.data(),
                           got.centers.size() * sizeof(ClusterCenter)))
      << what << ": centers differ at the byte level";
}

SlicParams small_params(int superpixels = 80, int iterations = 5,
                        double ratio = 0.5) {
  SlicParams params;
  params.num_superpixels = superpixels;
  params.max_iterations = iterations;
  params.subsample_ratio = ratio;
  return params;
}

std::vector<RgbImage> synthetic_frames(int count, int width, int height,
                                       std::uint64_t seed_base) {
  std::vector<RgbImage> frames;
  for (int f = 0; f < count; ++f) {
    frames.push_back(
        generate_synthetic({width, height},
                           seed_base + static_cast<std::uint64_t>(f))
            .image);
  }
  return frames;
}

TEST(StreamEngine, SingleStreamMatchesTemporalSlic) {
  const SlicParams params = small_params();
  const std::vector<RgbImage> frames = synthetic_frames(5, 160, 120, 100);

  TemporalSlic reference(params);
  StreamEngine engine;
  StreamOptions opts;
  opts.params = params;
  const StreamId id = engine.open_stream(opts);

  for (std::size_t f = 0; f < frames.size(); ++f) {
    const Segmentation& want = reference.next_frame(frames[f]);
    const auto submitted = engine.submit(id, frames[f]);
    ASSERT_EQ(submitted.status, SubmitStatus::kAdmitted);
    ASSERT_EQ(engine.wait(submitted.ticket), WaitStatus::kCompleted);
    const Segmentation* got = engine.last_result(id);
    ASSERT_NE(got, nullptr);
    expect_identical(*got, want, "frame " + std::to_string(f));
  }
  engine.close_stream(id);
}

TEST(StreamEngine, InterleavedStreamsMatchIndependentSequentialRuns) {
  // Three streams with different params and geometries, frames submitted
  // interleaved (all K of frame f before any wait), across the fusion x
  // thread-count matrix. Each stream must match its own independent
  // sequential TemporalSlic run byte for byte.
  GlobalThreadsGuard threads_guard;
  struct StreamCase {
    SlicParams params;
    int width;
    int height;
    std::uint64_t seed;
  };
  const std::vector<StreamCase> cases = {
      {small_params(80, 5, 0.5), 160, 120, 200},
      {small_params(120, 6, 0.25), 120, 90, 300},
      {small_params(60, 4, 1.0), 200, 100, 400},
  };
  constexpr std::size_t kFrames = 4;

  for (const bool fused : {true, false}) {
    FusionGuard fusion_guard(fused);
    for (const int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);
      const std::string what = std::string("fused=") + (fused ? "1" : "0") +
                               " threads=" + std::to_string(threads);

      std::vector<std::vector<RgbImage>> frames;
      std::vector<TemporalSlic> references;
      for (const StreamCase& c : cases) {
        frames.push_back(synthetic_frames(kFrames, c.width, c.height, c.seed));
        references.emplace_back(c.params);
      }

      StreamEngine engine;
      std::vector<StreamId> ids;
      for (const StreamCase& c : cases) {
        StreamOptions opts;
        opts.params = c.params;
        ids.push_back(engine.open_stream(opts));
      }

      for (std::size_t f = 0; f < kFrames; ++f) {
        std::vector<FrameTicket> tickets;
        for (std::size_t s = 0; s < cases.size(); ++s) {
          const auto submitted = engine.submit(ids[s], frames[s][f]);
          ASSERT_EQ(submitted.status, SubmitStatus::kAdmitted) << what;
          tickets.push_back(submitted.ticket);
        }
        for (std::size_t s = 0; s < cases.size(); ++s) {
          ASSERT_EQ(engine.wait(tickets[s]), WaitStatus::kCompleted) << what;
          const Segmentation& want = references[s].next_frame(frames[s][f]);
          const Segmentation* got = engine.last_result(ids[s]);
          ASSERT_NE(got, nullptr) << what;
          expect_identical(*got, want,
                           what + " stream=" + std::to_string(s) +
                               " frame=" + std::to_string(f));
        }
      }
      for (const StreamId id : ids) engine.close_stream(id);
    }
  }
}

TEST(StreamEngine, ColdCpaStreamMatchesSequentialCpa) {
  // Several cold CPA streams per batch: with more than one pool thread the
  // batch's frames are the pool chunks, so each CPA frame runs its serial
  // path inside a worker. Every frame must still match a plain
  // CpaSlic::segment call byte for byte, at every thread count.
  GlobalThreadsGuard threads_guard;
  const SlicParams params = small_params();
  constexpr std::size_t kStreams = 3;
  constexpr std::size_t kFrames = 3;
  const CpaSlic reference(params);
  std::vector<std::vector<RgbImage>> frames;
  std::vector<std::vector<Segmentation>> want(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    frames.push_back(synthetic_frames(static_cast<int>(kFrames), 160, 120,
                                      500 + 10 * s));
    for (const RgbImage& frame : frames[s])
      want[s].push_back(reference.segment(frame));
  }

  for (const int threads : {1, 3, 7}) {
    ThreadPool::set_global_threads(threads);
    StreamEngine engine;
    std::vector<StreamId> ids;
    for (std::size_t s = 0; s < kStreams; ++s) {
      StreamOptions opts;
      opts.params = params;
      opts.algorithm = engine::StreamAlgorithm::kCpa;
      opts.temporal_warm = false;
      ids.push_back(engine.open_stream(opts));
    }
    for (std::size_t f = 0; f < kFrames; ++f) {
      // Queue one frame per stream before the scheduler may form a batch,
      // so every batch holds all the streams.
      engine.pause();
      std::vector<FrameTicket> tickets;
      for (std::size_t s = 0; s < kStreams; ++s) {
        const auto submitted = engine.submit(ids[s], frames[s][f]);
        ASSERT_EQ(submitted.status, SubmitStatus::kAdmitted);
        tickets.push_back(submitted.ticket);
      }
      engine.resume();
      for (std::size_t s = 0; s < kStreams; ++s) {
        ASSERT_EQ(engine.wait(tickets[s]), WaitStatus::kCompleted);
        const Segmentation* got = engine.last_result(ids[s]);
        ASSERT_NE(got, nullptr);
        expect_identical(*got, want[s][f],
                         "threads=" + std::to_string(threads) + " stream=" +
                             std::to_string(s) + " frame=" +
                             std::to_string(f));
      }
    }
    EXPECT_EQ(engine.stats().batches, kFrames) << "threads=" << threads;
  }
}

TEST(StreamEngine, ResetStreamColdStartsLikeTemporalReset) {
  const SlicParams params = small_params();
  const std::vector<RgbImage> frames = synthetic_frames(4, 160, 120, 600);

  TemporalSlic reference(params);
  StreamEngine engine;
  StreamOptions opts;
  opts.params = params;
  const StreamId id = engine.open_stream(opts);

  const auto run_one = [&](const RgbImage& frame) -> const Segmentation* {
    const auto submitted = engine.submit(id, frame);
    EXPECT_EQ(submitted.status, SubmitStatus::kAdmitted);
    EXPECT_EQ(engine.wait(submitted.ticket), WaitStatus::kCompleted);
    return engine.last_result(id);
  };

  (void)reference.next_frame(frames[0]);
  (void)run_one(frames[0]);
  (void)reference.next_frame(frames[1]);
  (void)run_one(frames[1]);

  // Scene cut: both sides drop their warm centers.
  reference.reset();
  engine.reset_stream(id);

  for (std::size_t f = 2; f < frames.size(); ++f) {
    const Segmentation& want = reference.next_frame(frames[f]);
    const Segmentation* got = run_one(frames[f]);
    ASSERT_NE(got, nullptr);
    expect_identical(*got, want, "post-reset frame " + std::to_string(f));
  }
}

TEST(StreamEngine, ResetStreamAppliesInSubmissionOrder) {
  // A frame submitted before reset_stream() keeps its warm start even when
  // it is still queued at the call; the first frame submitted after the
  // call cold-starts.
  const SlicParams params = small_params();
  const std::vector<RgbImage> frames = synthetic_frames(3, 160, 120, 650);

  std::vector<Segmentation> got;
  StreamEngine engine;
  StreamOptions opts;
  opts.params = params;
  opts.on_complete = [&](const FrameResult& result) {
    if (!result.dropped) got.push_back(*result.segmentation);
  };
  const StreamId id = engine.open_stream(opts);

  const auto first = engine.submit(id, frames[0]);
  ASSERT_EQ(engine.wait(first.ticket), WaitStatus::kCompleted);
  engine.pause();
  ASSERT_EQ(engine.submit(id, frames[1]).status, SubmitStatus::kAdmitted);
  engine.reset_stream(id);
  ASSERT_EQ(engine.submit(id, frames[2]).status, SubmitStatus::kAdmitted);
  engine.resume();
  engine.drain();

  TemporalSlic reference(params);
  std::vector<Segmentation> want;
  want.push_back(reference.next_frame(frames[0]));
  want.push_back(reference.next_frame(frames[1]));
  reference.reset();
  want.push_back(reference.next_frame(frames[2]));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t f = 0; f < want.size(); ++f)
    expect_identical(got[f], want[f], "frame " + std::to_string(f));
}

TEST(StreamEngine, SceneCutSurvivesEvictionOfItsFrame) {
  // Drop-oldest evicts the first frame submitted after reset_stream(); the
  // cut moves to the next queued frame (queue_limit 2) or, with nothing
  // queued behind it, to the next admission (queue_limit 1). Either way
  // the first surviving post-reset frame cold-starts.
  const SlicParams params = small_params();
  const std::vector<RgbImage> frames = synthetic_frames(5, 160, 120, 660);
  for (const std::size_t queue_limit : {std::size_t{1}, std::size_t{2}}) {
    const std::string what = "queue_limit=" + std::to_string(queue_limit);
    std::vector<Segmentation> got;
    StreamEngine engine;
    StreamOptions opts;
    opts.params = params;
    opts.queue_limit = queue_limit;
    opts.policy = AdmissionPolicy::kDropOldest;
    opts.on_complete = [&](const FrameResult& result) {
      if (!result.dropped) got.push_back(*result.segmentation);
    };
    const StreamId id = engine.open_stream(opts);

    const auto first = engine.submit(id, frames[0]);
    ASSERT_EQ(engine.wait(first.ticket), WaitStatus::kCompleted) << what;
    engine.pause();
    // queue_limit 2: frames[1] is queued before the cut and evicted first;
    // frames[2] (the cut) is evicted by frames[4], handing the cut to
    // frames[3]. queue_limit 1: frames[2] and frames[3] are evicted in turn
    // and frames[4] inherits the cut.
    if (queue_limit == 2) {
      ASSERT_EQ(engine.submit(id, frames[1]).status, SubmitStatus::kAdmitted);
    }
    engine.reset_stream(id);
    for (std::size_t f = 2; f < frames.size(); ++f) {
      ASSERT_EQ(engine.submit(id, frames[f]).status, SubmitStatus::kAdmitted)
          << what;
    }
    engine.resume();
    engine.drain();
    EXPECT_EQ(engine.stream_stats(id).dropped, 2u) << what;

    const std::size_t first_survivor = queue_limit == 2 ? 3 : 4;
    TemporalSlic reference(params);
    std::vector<Segmentation> want;
    want.push_back(reference.next_frame(frames[0]));
    reference.reset();
    for (std::size_t f = first_survivor; f < frames.size(); ++f)
      want.push_back(reference.next_frame(frames[f]));
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i)
      expect_identical(got[i], want[i], what + " completion " +
                                            std::to_string(i));
  }
}

TEST(StreamEngine, OpenStreamRejectsNegativeWarmIterations) {
  StreamEngine engine;
  StreamOptions opts;
  opts.params = small_params();
  opts.warm_iterations = -1;
  EXPECT_THROW((void)engine.open_stream(opts), ContractViolation);
  EXPECT_EQ(engine.stats().streams, 0u);
}

TEST(StreamEngine, SteadyStateFramesAreAllocationFree) {
  // Two warm streams; after the warm-up frames, a full submit+wait cycle
  // on both streams must not touch the heap (the engine-wide face of the
  // TemporalSlic zero-alloc contract).
  StreamEngine engine;
  StreamOptions opts;
  opts.params = small_params(120, 8, 0.5);
  const StreamId a = engine.open_stream(opts);
  const StreamId b = engine.open_stream(opts);

  const std::vector<RgbImage> frames_a = synthetic_frames(5, 160, 120, 700);
  const std::vector<RgbImage> frames_b = synthetic_frames(5, 160, 120, 800);

  const auto cycle = [&](std::size_t f) {
    const auto ta = engine.submit(a, frames_a[f]);
    const auto tb = engine.submit(b, frames_b[f]);
    ASSERT_EQ(engine.wait(ta.ticket), WaitStatus::kCompleted);
    ASSERT_EQ(engine.wait(tb.ticket), WaitStatus::kCompleted);
  };

  for (std::size_t f = 0; f < frames_a.size(); ++f) {
    const std::uint64_t allocs =
        alloc_counter::count_allocations([&] { cycle(f); });
    if (f >= 2) {
      EXPECT_EQ(allocs, 0u)
          << "frame " << f << " touched the heap in steady state";
    }
  }
}

TEST(StreamEngine, ShedPolicyRejectsWhenFull) {
  StreamEngine engine;
  StreamOptions opts;
  opts.params = small_params();
  opts.queue_limit = 2;
  opts.policy = AdmissionPolicy::kShed;
  const StreamId id = engine.open_stream(opts);
  const RgbImage frame = generate_synthetic({120, 90}, 11).image;

  engine.pause();  // hold the queue at its bound deterministically
  ASSERT_EQ(engine.submit(id, frame).status, SubmitStatus::kAdmitted);
  ASSERT_EQ(engine.submit(id, frame).status, SubmitStatus::kAdmitted);
  const auto third = engine.submit(id, frame);
  EXPECT_EQ(third.status, SubmitStatus::kShed);
  EXPECT_EQ(engine.stream_stats(id).shed, 1u);
  engine.resume();
  engine.drain();
  EXPECT_EQ(engine.stream_stats(id).completed, 2u);
  EXPECT_EQ(engine.stats().shed, 1u);
}

TEST(StreamEngine, DropOldestEvictsQueuedFrameAndKeepsChainIdentical) {
  const SlicParams params = small_params();
  const std::vector<RgbImage> frames = synthetic_frames(4, 160, 120, 900);

  std::vector<FrameTicket> dropped_tickets;
  StreamEngine engine;
  StreamOptions opts;
  opts.params = params;
  opts.queue_limit = 3;
  opts.policy = AdmissionPolicy::kDropOldest;
  opts.on_complete = [&](const FrameResult& result) {
    if (result.dropped) dropped_tickets.push_back(result.ticket);
  };
  const StreamId id = engine.open_stream(opts);

  engine.pause();
  std::vector<FrameTicket> tickets;
  for (std::size_t f = 0; f < 3; ++f) {
    const auto submitted = engine.submit(id, frames[f]);
    ASSERT_EQ(submitted.status, SubmitStatus::kAdmitted);
    tickets.push_back(submitted.ticket);
  }
  // Queue full, nothing in flight (paused): the 4th admission evicts the
  // oldest queued frame, sequence 1.
  const auto fourth = engine.submit(id, frames[3]);
  ASSERT_EQ(fourth.status, SubmitStatus::kAdmitted);
  EXPECT_EQ(fourth.dropped_sequence, 1u);
  ASSERT_EQ(dropped_tickets.size(), 1u);
  EXPECT_EQ(dropped_tickets[0].sequence, 1u);
  tickets.push_back(fourth.ticket);
  engine.resume();

  EXPECT_EQ(engine.wait(tickets[0]), WaitStatus::kDropped);
  for (std::size_t i = 1; i < tickets.size(); ++i)
    EXPECT_EQ(engine.wait(tickets[i]), WaitStatus::kCompleted);
  EXPECT_EQ(engine.stream_stats(id).dropped, 1u);

  // The surviving chain (frames 1, 2, 3 — frame 0 evicted before it ever
  // ran) matches a sequential run over exactly those frames.
  TemporalSlic reference(params);
  (void)reference.next_frame(frames[1]);
  (void)reference.next_frame(frames[2]);
  const Segmentation& want = reference.next_frame(frames[3]);
  const Segmentation* got = engine.last_result(id);
  ASSERT_NE(got, nullptr);
  expect_identical(*got, want, "surviving chain");
}

TEST(StreamEngine, BlockPolicyBackpressuresProducer) {
  StreamEngine engine;
  StreamOptions opts;
  opts.params = small_params();
  opts.queue_limit = 2;
  opts.policy = AdmissionPolicy::kBlock;
  const StreamId id = engine.open_stream(opts);
  const RgbImage frame = generate_synthetic({120, 90}, 13).image;

  engine.pause();
  ASSERT_EQ(engine.submit(id, frame).status, SubmitStatus::kAdmitted);
  ASSERT_EQ(engine.submit(id, frame).status, SubmitStatus::kAdmitted);

  // The third submit must block until the scheduler frees a slot.
  std::thread producer([&] {
    const auto submitted = engine.submit(id, frame);
    EXPECT_EQ(submitted.status, SubmitStatus::kAdmitted);
  });
  engine.resume();
  producer.join();
  engine.drain();
  const auto stats = engine.stream_stats(id);
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(StreamEngine, GlobalQueueLimitBounds) {
  engine::EngineOptions engine_opts;
  engine_opts.global_queue_limit = 2;
  StreamEngine engine(engine_opts);
  StreamOptions opts;
  opts.params = small_params();
  opts.queue_limit = 4;
  opts.policy = AdmissionPolicy::kShed;
  const StreamId a = engine.open_stream(opts);
  const StreamId b = engine.open_stream(opts);
  const RgbImage frame = generate_synthetic({120, 90}, 17).image;

  engine.pause();
  ASSERT_EQ(engine.submit(a, frame).status, SubmitStatus::kAdmitted);
  ASSERT_EQ(engine.submit(b, frame).status, SubmitStatus::kAdmitted);
  // Both per-stream queues have room, but the engine-wide bound is hit.
  EXPECT_EQ(engine.submit(a, frame).status, SubmitStatus::kShed);
  engine.resume();
  engine.drain();
  EXPECT_EQ(engine.stats().frames, 2u);
}

TEST(StreamEngine, CloseStreamDrainsThenReclaims) {
  std::vector<std::uint64_t> completed_sequences;
  StreamEngine engine;
  StreamOptions opts;
  opts.params = small_params();
  opts.queue_limit = 4;
  opts.on_complete = [&](const FrameResult& result) {
    if (!result.dropped) completed_sequences.push_back(result.ticket.sequence);
  };
  const StreamId id = engine.open_stream(opts);
  const RgbImage frame = generate_synthetic({120, 90}, 19).image;

  engine.pause();
  FrameTicket last;
  for (int f = 0; f < 3; ++f) {
    const auto submitted = engine.submit(id, frame);
    ASSERT_EQ(submitted.status, SubmitStatus::kAdmitted);
    last = submitted.ticket;
  }
  engine.resume();
  engine.close_stream(id);  // drains queued frames, completions fire

  EXPECT_EQ(completed_sequences.size(), 3u);
  EXPECT_EQ(engine.stats().streams, 0u);
  // The stream is gone: submits shed, waits report invalid, stats zero.
  EXPECT_EQ(engine.submit(id, frame).status, SubmitStatus::kShed);
  EXPECT_EQ(engine.wait(last), WaitStatus::kInvalid);
  EXPECT_EQ(engine.stream_stats(id).submitted, 0u);
  EXPECT_EQ(engine.last_result(id), nullptr);
}

TEST(StreamEngine, WaitRejectsInvalidTickets) {
  StreamEngine engine;
  StreamOptions opts;
  opts.params = small_params();
  const StreamId id = engine.open_stream(opts);

  EXPECT_EQ(engine.wait({id + 999, 1}), WaitStatus::kInvalid);
  EXPECT_EQ(engine.wait({id, 0}), WaitStatus::kInvalid);
  EXPECT_EQ(engine.wait({id, 42}), WaitStatus::kInvalid);  // never admitted
}

TEST(StreamEngine, TwoEnginesDoNotAliasMetrics) {
  StreamEngine first;
  StreamEngine second;
  ASSERT_NE(first.instance_id(), second.instance_id());

  StreamOptions opts;
  opts.params = small_params();
  const StreamId id = first.open_stream(opts);
  const RgbImage frame = generate_synthetic({120, 90}, 23).image;
  const auto submitted = first.submit(id, frame);
  ASSERT_EQ(first.wait(submitted.ticket), WaitStatus::kCompleted);

  EXPECT_EQ(first.stats().frames, 1u);
  EXPECT_EQ(second.stats().frames, 0u);
  const std::string first_name = "sslic.engine." +
                                 std::to_string(first.instance_id()) +
                                 ".frames";
  const std::string second_name = "sslic.engine." +
                                  std::to_string(second.instance_id()) +
                                  ".frames";
  auto& registry = telemetry::MetricsRegistry::global();
  EXPECT_EQ(registry.counter(first_name).value(), 1u);
  EXPECT_EQ(registry.counter(second_name).value(), 0u);
}

TEST(StreamEngine, StatuszSectionListsLiveEngines) {
  StreamEngine engine;
  StreamOptions opts;
  opts.params = small_params();
  const StreamId id = engine.open_stream(opts);
  const RgbImage frame = generate_synthetic({120, 90}, 37).image;
  const auto submitted = engine.submit(id, frame);
  ASSERT_EQ(engine.wait(submitted.ticket), WaitStatus::kCompleted);

  const std::string section = engine::engine_statusz_json();
  EXPECT_NE(section.find("\"id\": " + std::to_string(engine.instance_id())),
            std::string::npos)
      << section;
  EXPECT_NE(section.find("\"streams\": 1"), std::string::npos) << section;
  // The section is mounted on the process /statusz body too.
  const std::string statusz = ops::statusz_json();
  EXPECT_NE(statusz.find("\"engine\""), std::string::npos);
}

// --- Per-frame causal observability (DESIGN.md §4k). ---

// Every admitted frame gets a unique, strictly positive trace id; the
// completion callback sees the same context the submitter was handed.
TEST(StreamEngine, FrameContextsAreUniqueAndReachCallbacks) {
  const std::vector<RgbImage> frames = synthetic_frames(4, 96, 72, 300);
  std::vector<engine::FrameContext> completed;
  StreamEngine engine;
  StreamOptions opts;
  opts.params = small_params(40, 3);
  opts.on_complete = [&](const FrameResult& done) {
    completed.push_back(done.context);
  };
  const StreamId id = engine.open_stream(opts);

  std::vector<engine::FrameContext> submitted;
  for (const RgbImage& frame : frames) {
    const auto result = engine.submit(id, frame);
    ASSERT_EQ(result.status, SubmitStatus::kAdmitted);
    EXPECT_NE(result.context.trace_id, 0u);
    EXPECT_EQ(result.context.stream, id);
    EXPECT_EQ(result.context.sequence, result.ticket.sequence);
    submitted.push_back(result.context);
  }
  engine.drain();
  ASSERT_EQ(completed.size(), frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f) {
    EXPECT_EQ(completed[f].trace_id, submitted[f].trace_id) << f;
    EXPECT_EQ(completed[f].sequence, submitted[f].sequence) << f;
  }
  // Uniqueness: ids are minted from one process-wide monotonic counter.
  for (std::size_t a = 0; a < submitted.size(); ++a)
    for (std::size_t b = a + 1; b < submitted.size(); ++b)
      EXPECT_NE(submitted[a].trace_id, submitted[b].trace_id);
  engine.close_stream(id);
}

// Each completed frame emits one wide event whose five stages tile its
// end-to-end latency exactly (each boundary is one clock read, so the sum
// differs from e2e only by floating-point rounding). The `warm` flag is
// the segmenter's own: a mid-stream resolution change cold-starts and
// reports warm == false.
TEST(StreamEngine, WideEventStagesSumToEndToEndLatency) {
  ops::framez_reset();
  std::vector<RgbImage> frames = synthetic_frames(4, 96, 72, 400);
  for (RgbImage& frame : synthetic_frames(2, 120, 90, 410))
    frames.push_back(std::move(frame));
  constexpr std::size_t kResized = 4;  // first 120x90 frame
  std::vector<Segmentation> got;
  StreamEngine engine;
  StreamOptions opts;
  opts.params = small_params(40, 3);
  opts.on_complete = [&](const FrameResult& result) {
    got.push_back(*result.segmentation);
  };
  const StreamId id = engine.open_stream(opts);
  std::vector<std::uint64_t> trace_ids;
  for (const RgbImage& frame : frames)
    trace_ids.push_back(engine.submit(id, frame).context.trace_id);
  engine.drain();

  // The segmenter's stages are timed inside the segment stage.
  const auto segmenter_ms = [](const ops::WideFrameEvent& e) {
    return e.convert_ms + e.init_ms + e.assign_ms + e.update_ms +
           e.connectivity_ms;
  };
  const std::vector<ops::WideFrameEvent> events = ops::recent_frame_events();
  ASSERT_EQ(events.size(), frames.size());
  for (std::size_t f = 0; f < events.size(); ++f) {
    const ops::WideFrameEvent& e = events[f];
    EXPECT_EQ(e.trace_id, trace_ids[f]) << f;
    EXPECT_EQ(e.engine_id, engine.instance_id());
    EXPECT_EQ(e.stream_id, id);
    EXPECT_EQ(e.sequence, static_cast<std::uint64_t>(f) + 1);
    EXPECT_GT(e.e2e_ms, 0.0);
    EXPECT_GT(e.segment_ms, 0.0);
    EXPECT_GE(e.admit_wait_ms, 0.0);
    EXPECT_GE(e.queue_ms, 0.0);
    EXPECT_GE(e.batch_form_ms, 0.0);
    EXPECT_GE(e.callback_ms, 0.0);
    const double stage_sum = e.admit_wait_ms + e.queue_ms + e.batch_form_ms +
                             e.segment_ms + e.callback_ms;
    EXPECT_NEAR(stage_sum, e.e2e_ms, 1e-6 * std::max(1.0, e.e2e_ms))
        << "stages must tile the end-to-end latency, frame " << f;
    EXPECT_GE(e.convert_ms, 0.0);
    EXPECT_GE(e.init_ms, 0.0);
    EXPECT_GT(e.assign_ms, 0.0);
    EXPECT_GE(e.update_ms, 0.0);
    EXPECT_GE(e.connectivity_ms, 0.0);
    EXPECT_LE(segmenter_ms(e), e.segment_ms) << f;
    EXPECT_GT(e.iterations, 0u);
    EXPECT_STRNE(e.isa, "");
    EXPECT_STREQ(e.isa, simd::isa_name(kernels::active_isa()));
    EXPECT_GE(e.batch_frames, 1u);
    EXPECT_GT(e.completed_ns, 0u);
    // Frame 1 and the first frame at the new resolution cold-start; every
    // other frame warm-starts from its predecessor.
    EXPECT_EQ(e.warm, f != 0 && f != kResized) << f;
  }
  engine.close_stream(id);

  // The frames' labels, and the connectivity signals in their wide events,
  // match the sequential segmenter's.
  TemporalSlic reference(opts.params);
  ASSERT_EQ(got.size(), frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f) {
    Instrumentation instr;
    expect_identical(got[f], reference.next_frame(frames[f], &instr),
                     "frame " + std::to_string(f));
    EXPECT_GT(instr.final_label_count, 0u) << f;
    EXPECT_EQ(events[f].final_labels, instr.final_label_count) << f;
    EXPECT_EQ(events[f].pixels_relabelled, instr.pixels_relabelled) << f;
  }

  // A CPA stream converts in the engine itself, which records the
  // conversion time srgb_to_lab returns. (The callback also holds drain()
  // until the frames' wide events are recorded.)
  ops::framez_reset();
  std::vector<double> cpa_convert_ms;
  StreamOptions cpa_opts;
  cpa_opts.params = small_params(40, 3);
  cpa_opts.algorithm = engine::StreamAlgorithm::kCpa;
  cpa_opts.temporal_warm = false;
  cpa_opts.on_complete = [&](const FrameResult& result) {
    cpa_convert_ms.push_back(result.instrumentation->convert_ms);
  };
  const StreamId cpa_id = engine.open_stream(cpa_opts);
  for (std::size_t f = 0; f < 2; ++f) (void)engine.submit(cpa_id, frames[f]);
  engine.drain();
  const std::vector<ops::WideFrameEvent> cpa_events = ops::recent_frame_events();
  ASSERT_EQ(cpa_events.size(), 2u);
  ASSERT_EQ(cpa_convert_ms.size(), 2u);
  for (std::size_t f = 0; f < cpa_events.size(); ++f) {
    const ops::WideFrameEvent& e = cpa_events[f];
    EXPECT_GT(e.convert_ms, 0.0) << f;
    EXPECT_EQ(e.convert_ms, cpa_convert_ms[f]) << f;
    EXPECT_GT(e.assign_ms, 0.0) << f;
    EXPECT_LE(segmenter_ms(e), e.segment_ms) << f;
  }
  engine.close_stream(cpa_id);
}

// drain() returns only after every completed frame's wide event is in the
// frame log, also for a stream without a completion callback: the scheduler
// records a batch's events after it has already released the streams, so a
// drain that waited on the queues alone could return one event short.
TEST(StreamEngine, DrainWaitsForCallbacklessStreamsWideEvents) {
  const std::vector<RgbImage> frames = synthetic_frames(2, 48, 36, 430);
  StreamEngine engine;
  StreamOptions opts;
  opts.params = small_params(12, 2);
  opts.algorithm = engine::StreamAlgorithm::kCpa;
  opts.temporal_warm = false;
  const StreamId id = engine.open_stream(opts);
  for (int repeat = 0; repeat < 1000; ++repeat) {
    ops::framez_reset();
    for (const RgbImage& frame : frames) (void)engine.submit(id, frame);
    engine.drain();
    ASSERT_EQ(ops::recent_frame_events().size(), frames.size())
        << "repeat " << repeat;
  }
  engine.close_stream(id);
}

// A stream with a latency SLO the engine cannot possibly meet must burn its
// error budget (burn rate > 1, /healthz "degraded") without ever tripping
// the liveness watchdog — degradation is not a liveness failure.
TEST(StreamEngine, ImpossibleSloBurnsBudgetButStaysLive) {
  const std::vector<RgbImage> frames = synthetic_frames(4, 96, 72, 500);
  StreamEngine engine;
  StreamOptions opts;
  opts.params = small_params(40, 3);
  opts.slo_target_ms = 1e-6;  // every frame violates
  opts.slo_objective = 0.99;
  const StreamId id = engine.open_stream(opts);
  for (const RgbImage& frame : frames) engine.submit(id, frame);
  engine.drain();

  const ops::SloSummary summary = ops::slo_summary();
  EXPECT_GE(summary.objectives, 1u);
  EXPECT_GE(summary.burning, 1u);
  EXPECT_GT(summary.max_burn_rate, 1.0);

  // Degraded-but-200: the health body flips to "degraded" with an slo
  // section while the HTTP status stays 200 (deadline 0 = no watchdog).
  int http_status = 0;
  const std::string health = ops::healthz_json(0.0, http_status);
  EXPECT_EQ(http_status, 200);
  EXPECT_NE(health.find("\"degraded\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"slo\""), std::string::npos) << health;

  // Closing the stream retires its tracker; the registry empties again
  // (other tests may have registered trackers, so only check the delta).
  const std::size_t before = ops::slo_summary().objectives;
  engine.close_stream(id);
  EXPECT_EQ(ops::slo_summary().objectives, before - 1);
}

TEST(StreamEngine, ParsesAdmissionPolicyNames) {
  AdmissionPolicy policy = AdmissionPolicy::kBlock;
  EXPECT_TRUE(engine::parse_admission_policy("shed", &policy));
  EXPECT_EQ(policy, AdmissionPolicy::kShed);
  EXPECT_TRUE(engine::parse_admission_policy("drop-oldest", &policy));
  EXPECT_EQ(policy, AdmissionPolicy::kDropOldest);
  EXPECT_TRUE(engine::parse_admission_policy("drop", &policy));
  EXPECT_EQ(policy, AdmissionPolicy::kDropOldest);
  EXPECT_TRUE(engine::parse_admission_policy("block", &policy));
  EXPECT_EQ(policy, AdmissionPolicy::kBlock);
  EXPECT_FALSE(engine::parse_admission_policy("bogus", &policy));
  EXPECT_STREQ(engine::admission_policy_name(AdmissionPolicy::kDropOldest),
               "drop-oldest");
}

}  // namespace
}  // namespace sslic
