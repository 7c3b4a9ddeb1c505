// Tests for the multithreaded execution layer (thread pool, parallel_for,
// parallel_reduce) and the determinism contract of the parallelized SLIC
// paths (CpaSlic, PpaSlic and warm-started TemporalSlic): results must be
// bit-identical at every thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "dataset/synthetic.h"
#include "slic/slic_baseline.h"
#include "slic/subsampled.h"
#include "slic/temporal.h"
#include "slic/types.h"

namespace sslic {
namespace {

/// Restores the global pool to the environment default on scope exit so
/// tests cannot leak a thread-count override into each other.
struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { ThreadPool::set_global_threads(0); }
};

TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  GlobalThreadsGuard guard;
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    constexpr std::size_t kChunks = 97;
    std::vector<std::atomic<int>> hits(kChunks);
    pool.run_chunks(kChunks, [&](std::size_t c) {
      hits[c].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t c = 0; c < kChunks; ++c)
      EXPECT_EQ(hits[c].load(), 1) << "chunk " << c << ", threads " << threads;
  }
}

TEST(ThreadPool, BackToBackTinyJobsTolerateLateWakers) {
  // Regression test for a late-waker race: a worker that slept through a
  // completed job could satisfy its wake predicate late, enter drain()
  // concurrently with the next run_chunks call's state reset, double-run a
  // chunk, and overshoot done_chunks so the caller hung. Rapid tiny jobs
  // maximize the window — the caller usually drains both chunks itself
  // before any worker wakes, so stragglers arrive during later jobs.
  ThreadPool pool(8);
  for (int job = 0; job < 2000; ++job) {
    std::atomic<int> total{0};
    pool.run_chunks(2, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(total.load(), 2) << "job " << job;
  }
}

TEST(ThreadPool, CurrentSlotIsExclusiveWithinAJob) {
  // Chunks of one job that run at the same time report different slots,
  // all below the thread count, so a job can index per-thread scratch by
  // them: claiming a slot must never find it already claimed.
  for (const int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> busy(static_cast<std::size_t>(threads));
    std::atomic<int> collisions{0};
    std::atomic<int> out_of_range{0};
    for (int job = 0; job < 50; ++job) {
      pool.run_chunks(64, [&](std::size_t) {
        const std::size_t slot = ThreadPool::current_slot();
        if (slot >= busy.size()) {
          out_of_range.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        if (busy[slot].exchange(1, std::memory_order_acq_rel) != 0)
          collisions.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();  // widen the window for an overlap
        busy[slot].store(0, std::memory_order_release);
      });
    }
    EXPECT_EQ(out_of_range.load(), 0) << "threads " << threads;
    EXPECT_EQ(collisions.load(), 0) << "threads " << threads;
  }
  EXPECT_EQ(ThreadPool::current_slot(), 0u);
}

TEST(ThreadPool, EmptyJobIsANoOp) {
  ThreadPool pool(4);
  bool ran = false;
  pool.run_chunks(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesExceptionAndStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_chunks(32,
                               [&](std::size_t c) {
                                 if (c == 7) throw std::runtime_error("chunk 7");
                               }),
               std::runtime_error);

  // The pool must be fully quiescent and reusable after a failed job.
  std::atomic<int> total{0};
  pool.run_chunks(32, [&](std::size_t) {
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, NestedCallsDegradeToSerial) {
  GlobalThreadsGuard guard;
  ThreadPool::set_global_threads(4);
  std::atomic<std::int64_t> total{0};
  parallel_for(0, 64, [&](std::int64_t lo, std::int64_t hi) {
    // Nested parallel primitives must run inline instead of deadlocking
    // against the in-flight outer job.
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    parallel_for(lo, hi, [&](std::int64_t ilo, std::int64_t ihi) {
      total.fetch_add(ihi - ilo, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  GlobalThreadsGuard guard;
  for (const int threads : {1, 3, 8}) {
    ThreadPool::set_global_threads(threads);
    constexpr std::int64_t kN = 10007;
    std::vector<std::atomic<int>> hits(kN);
    parallel_for(0, kN, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i)
        hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                    std::memory_order_relaxed);
    });
    std::int64_t total = 0;
    for (const auto& h : hits) {
      EXPECT_EQ(h.load(), 1);
      total += h.load();
    }
    EXPECT_EQ(total, kN);
  }
}

TEST(ParallelReduce, BitIdenticalAcrossThreadCounts) {
  GlobalThreadsGuard guard;
  // A floating-point sum whose value depends on association order: if the
  // chunk structure or merge order varied with the thread count, the totals
  // would drift.
  const auto sum_under = [](int threads) {
    ThreadPool::set_global_threads(threads);
    return parallel_reduce<double>(
        1, 200000,
        [](double& partial, std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i)
            partial += 1.0 / static_cast<double>(i * i);
        },
        [](double& into, double from) { into += from; });
  };
  const double serial = sum_under(1);
  for (const int threads : {2, 4, 8}) {
    const double parallel = sum_under(threads);
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
}

struct SegCase {
  std::uint64_t seed;
  double ratio;  // 1.0 = full SLIC, < 1 = subsampled CPA
};

TEST(Determinism, SlicLabelsAndCentersMatchSerial) {
  GlobalThreadsGuard guard;
  SyntheticParams scene;
  scene.width = 96;
  scene.height = 64;
  scene.min_regions = 4;
  scene.max_regions = 8;

  const SegCase cases[] = {{11, 1.0}, {12, 1.0}, {13, 1.0},
                           {11, 0.5}, {12, 0.5}, {13, 0.5}};
  for (const SegCase& c : cases) {
    const GroundTruthImage gt = generate_synthetic(scene, c.seed);

    SlicParams params;
    params.num_superpixels = 40;
    params.subsample_ratio = c.ratio;
    const CpaSlic slic(params);

    ThreadPool::set_global_threads(1);
    const Segmentation serial = slic.segment(gt.image);
    ThreadPool::set_global_threads(8);
    const Segmentation parallel = slic.segment(gt.image);

    EXPECT_EQ(serial.labels.pixels(), parallel.labels.pixels())
        << "seed=" << c.seed << " ratio=" << c.ratio;
    EXPECT_EQ(serial.centers, parallel.centers)
        << "seed=" << c.seed << " ratio=" << c.ratio;
  }
}

static_assert(sizeof(ClusterCenter) == 5 * sizeof(double),
              "memcmp center comparison assumes a packed layout");

/// Byte-level equality of labels and centers: operator== on doubles would
/// let -0.0 pass for +0.0 and hide a summation-order change.
void expect_same_bytes(const Segmentation& serial, const Segmentation& got,
                       const std::string& what) {
  EXPECT_EQ(serial.iterations_run, got.iterations_run) << what;
  EXPECT_EQ(serial.labels.pixels(), got.labels.pixels()) << what;
  ASSERT_EQ(serial.centers.size(), got.centers.size()) << what;
  EXPECT_EQ(0, std::memcmp(serial.centers.data(), got.centers.data(),
                           serial.centers.size() * sizeof(ClusterCenter)))
      << what << ": centers differ at the byte level";
}

/// One PPA configuration of the thread-count identity checks.
struct PpaCase {
  std::string name;
  int width = 160;
  int height = 120;
  SlicParams params;
  DataWidth data_width = DataWidth::float64();
};

std::vector<PpaCase> ppa_cases() {
  const auto make = [](std::string name, double ratio) {
    PpaCase c;
    c.name = std::move(name);
    c.params.num_superpixels = 80;
    c.params.max_iterations = 8;
    c.params.subsample_ratio = ratio;
    return c;
  };
  std::vector<PpaCase> out;
  out.push_back(make("ratio-1", 1.0));
  out.push_back(make("ratio-0.5", 0.5));
  out.push_back(make("ratio-0.25", 0.25));
  {
    PpaCase c = make("rows-0.5", 0.5);
    c.params.subset_pattern = SubsetPattern::kRowInterleaved;
    out.push_back(c);
  }
  // A loose freeze threshold makes the preemptive runs skip tiles.
  for (const double ratio : {0.5, 1.0}) {
    PpaCase c = make("preemptive-" + std::to_string(ratio), ratio);
    c.params.preemptive = true;
    c.params.freeze_threshold = 0.6;
    c.params.max_iterations = 12;
    out.push_back(c);
  }
  {
    PpaCase c = make("8-bit", 0.5);
    c.data_width = DataWidth::fixed(8);
    out.push_back(c);
  }
  {
    // 21x14 grid: neither dimension divides, so tiles and stripes are
    // ragged.
    PpaCase c = make("481x321-k300", 0.5);
    c.width = 481;
    c.height = 321;
    c.params.num_superpixels = 300;
    out.push_back(c);
  }
  {
    // Two grid rows: fewer accumulation bands than threads, and each band
    // scans the other's stripe.
    PpaCase c = make("400x96-k16", 1.0);
    c.width = 400;
    c.height = 96;
    c.params.num_superpixels = 16;
    out.push_back(c);
  }
  {
    // One grid row: a single stripe and a single band at any thread count.
    PpaCase c = make("400x48-k8", 0.5);
    c.width = 400;
    c.height = 48;
    c.params.num_superpixels = 8;
    out.push_back(c);
  }
  return out;
}

TEST(Determinism, PpaLabelsAndCentersMatchSerial) {
  GlobalThreadsGuard guard;
  for (const PpaCase& c : ppa_cases()) {
    SyntheticParams scene;
    scene.width = c.width;
    scene.height = c.height;
    const GroundTruthImage gt = generate_synthetic(scene, 21);
    const PpaSlic slic(c.params, c.data_width);

    ThreadPool::set_global_threads(1);
    const Segmentation serial = slic.segment(gt.image);
    for (const int threads : {3, 8}) {
      ThreadPool::set_global_threads(threads);
      expect_same_bytes(serial, slic.segment(gt.image),
                        c.name + " threads=" + std::to_string(threads));
    }
  }
}

TEST(Determinism, WarmTemporalSlicMatchesSerial) {
  GlobalThreadsGuard guard;
  for (const PpaCase& c : ppa_cases()) {
    SyntheticParams scene;
    scene.width = c.width;
    scene.height = c.height;
    std::vector<RgbImage> frames;
    for (std::uint64_t f = 0; f < 3; ++f)
      frames.push_back(generate_synthetic(scene, 30 + f).image);

    // Frame 0 is cold; frames 1 and 2 warm-start from their predecessor.
    const auto run_stream = [&](int threads) {
      ThreadPool::set_global_threads(threads);
      TemporalSlic video(c.params, c.data_width);
      std::vector<Segmentation> out;
      for (const RgbImage& frame : frames) out.push_back(video.next_frame(frame));
      return out;
    };
    const std::vector<Segmentation> serial = run_stream(1);
    for (const int threads : {3, 8}) {
      const std::vector<Segmentation> parallel = run_stream(threads);
      for (std::size_t f = 0; f < frames.size(); ++f) {
        expect_same_bytes(serial[f], parallel[f],
                          c.name + " threads=" + std::to_string(threads) +
                              " frame=" + std::to_string(f));
      }
    }
  }
}

TEST(Determinism, SyntheticGeneratorMatchesSerial) {
  GlobalThreadsGuard guard;
  SyntheticParams scene;
  scene.width = 96;
  scene.height = 64;

  ThreadPool::set_global_threads(1);
  const GroundTruthImage serial = generate_synthetic(scene, 99);
  ThreadPool::set_global_threads(8);
  const GroundTruthImage parallel = generate_synthetic(scene, 99);

  EXPECT_EQ(serial.truth.pixels(), parallel.truth.pixels());
  EXPECT_EQ(serial.image.pixels(), parallel.image.pixels());
  EXPECT_EQ(serial.num_regions, parallel.num_regions);
}

}  // namespace
}  // namespace sslic
