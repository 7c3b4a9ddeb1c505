// Golden tests for the iteration core's determinism contract (DESIGN.md
// §4e): each iteration assigns, then accumulates sigmas in fixed bands.
// (The suite and test names date from a removed single-sweep CPA schedule
// that these tests held byte-identical to the two-pass one.)
//
//  - Every CPA variant (exact, subsampled) and PPA variant (both subset
//    patterns, preemptive, warm start, quantized data width) must
//    reproduce its own threads=1 labels AND centers byte for byte at every
//    thread count, under every compiled SIMD backend.
//  - the accumulate_row kernel of every vector backend must bit-equal the
//    scalar reference on fuzzed rows (same contract as the assign kernels).
//  - TemporalSlic's steady state (frame 2 onward at fixed geometry) must
//    perform zero heap allocations per frame, proven by a counting global
//    operator new installed in this binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/alloc_counter.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "dataset/synthetic.h"
#include "slic/assign_kernels.h"
#include "slic/center_update.h"
#include "slic/slic_baseline.h"
#include "slic/subsampled.h"
#include "slic/temporal.h"
#include "slic/types.h"

// Every allocation in this binary bumps sslic::alloc_counter — the
// zero-allocation steady-state assertions below depend on it.
SSLIC_INSTALL_COUNTING_ALLOCATOR();

namespace sslic {
namespace {

struct IsaGuard {
  ~IsaGuard() { simd::reset_preferred_isa(); }
};

struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { ThreadPool::set_global_threads(0); }
};

/// Scalar plus every vector backend this binary compiled in and this CPU
/// can execute.
std::vector<simd::Isa> testable_isas() {
  std::vector<simd::Isa> isas{simd::Isa::kScalar};
  for (const simd::Isa isa :
       {simd::Isa::kSse2, simd::Isa::kAvx2, simd::Isa::kAvx512,
        simd::Isa::kNeon}) {
    if (kernels::backend_compiled(isa) && simd::cpu_supports(isa))
      isas.push_back(isa);
  }
  return isas;
}

/// One algorithm variant of the identity matrix.
struct Variant {
  std::string name;
  bool cpa = false;
  SlicParams params;
};

std::vector<Variant> variants() {
  std::vector<Variant> out;
  {
    Variant v{"cpa-exact", true, {}};
    v.params.num_superpixels = 80;
    v.params.max_iterations = 5;
    out.push_back(v);
  }
  {
    Variant v{"cpa-subsampled-0.5", true, {}};
    v.params.num_superpixels = 80;
    v.params.max_iterations = 6;
    v.params.subsample_ratio = 0.5;
    out.push_back(v);
  }
  {
    Variant v{"ppa-dithered-0.5", false, {}};
    v.params.num_superpixels = 80;
    v.params.max_iterations = 6;
    v.params.subsample_ratio = 0.5;
    out.push_back(v);
  }
  {
    Variant v{"ppa-rows-0.25", false, {}};
    v.params.num_superpixels = 80;
    v.params.max_iterations = 8;
    v.params.subsample_ratio = 0.25;
    v.params.subset_pattern = SubsetPattern::kRowInterleaved;
    out.push_back(v);
  }
  {
    Variant v{"ppa-preemptive-0.5", false, {}};
    v.params.num_superpixels = 80;
    v.params.max_iterations = 8;
    v.params.subsample_ratio = 0.5;
    v.params.preemptive = true;
    out.push_back(v);
  }
  return out;
}

Segmentation run_variant(const Variant& v, const LabImage& lab) {
  if (v.cpa) return CpaSlic(v.params).segment_lab(lab);
  return PpaSlic(v.params).segment_lab(lab);
}

static_assert(sizeof(ClusterCenter) == 5 * sizeof(double),
              "memcmp center comparison assumes a packed layout");
static_assert(sizeof(Sigma) == 5 * sizeof(double) + sizeof(std::uint64_t),
              "memcmp sigma comparison assumes a packed layout");

/// Byte-level equality: operator== on doubles would let -0.0 pass for
/// +0.0 and hide a summation-order change.
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

TEST(FusedIteration, MatchesTwoPassAcrossVariantsIsasThreadsAndStrategies) {
  // The full identity matrix: every algorithm variant x every compiled
  // backend x thread counts. Each (variant, isa, threads) cell must
  // reproduce the threads=1 run of its (variant, isa) by the §4e contract.
  const GroundTruthImage gt = generate_synthetic({160, 120}, 41);
  const LabImage lab = srgb_to_lab(gt.image);
  IsaGuard isa_guard;
  GlobalThreadsGuard threads_guard;
  for (const Variant& v : variants()) {
    for (const simd::Isa isa : testable_isas()) {
      simd::set_preferred_isa(isa);
      Segmentation serial;
      for (const int threads : {1, 3, 7}) {
        ThreadPool::set_global_threads(threads);
        const std::string what = v.name + " isa=" + simd::isa_name(isa) +
                                 " threads=" + std::to_string(threads);
        const Segmentation run = run_variant(v, lab);
        if (threads == 1) serial = run;
        expect_identical(run, serial, what + " vs threads=1");
      }
    }
  }
}

/// Runs `segment` at threads 3 and 8 and checks each run against the
/// threads=1 run.
template <typename Segment>
void expect_matches_serial(const Segment& segment, const std::string& name) {
  GlobalThreadsGuard threads_guard;
  ThreadPool::set_global_threads(1);
  const Segmentation serial = segment();
  for (const int threads : {3, 8}) {
    ThreadPool::set_global_threads(threads);
    expect_identical(segment(), serial,
                     name + " threads=" + std::to_string(threads));
  }
}

TEST(FusedIteration, WarmStartMatchesTwoPass) {
  const GroundTruthImage gt = generate_synthetic({160, 120}, 43);
  const LabImage lab = srgb_to_lab(gt.image);
  SlicParams params;
  params.num_superpixels = 80;
  params.max_iterations = 4;
  params.subsample_ratio = 0.5;
  const PpaSlic segmenter(params);
  const std::vector<ClusterCenter> warm =
      segmenter.segment_lab(lab).centers;
  expect_matches_serial([&] { return segmenter.segment_lab_warm(lab, warm); },
                        "ppa-warm");
}

TEST(FusedIteration, QuantizedDataWidthMatchesTwoPass) {
  const GroundTruthImage gt = generate_synthetic({160, 120}, 47);
  const LabImage lab = srgb_to_lab(gt.image);
  SlicParams params;
  params.num_superpixels = 80;
  params.max_iterations = 5;
  params.subsample_ratio = 0.5;
  const PpaSlic segmenter(params, DataWidth::fixed(8));
  expect_matches_serial([&] { return segmenter.segment_lab(lab); },
                        "ppa-quantized-8bit");
}

TEST(FusedIteration, IntoVariantMatchesValueOverload) {
  const GroundTruthImage gt = generate_synthetic({120, 90}, 53);
  const LabImage lab = srgb_to_lab(gt.image);
  SlicParams params;
  params.num_superpixels = 60;
  params.max_iterations = 4;
  const CpaSlic cpa(params);
  const Segmentation by_value = cpa.segment_lab(lab);
  Segmentation into;
  IterationScratch scratch;
  // Run twice through the same scratch: the second (fully warm) run must
  // still match, proving reused buffers carry no state across calls.
  cpa.segment_lab_into(lab, into, scratch);
  cpa.segment_lab_into(lab, into, scratch);
  expect_identical(into, by_value, "cpa-into");
}

TEST(AccumulateRowKernel, VectorBackendsBitEqualScalar) {
  IsaGuard isa_guard;
  Rng rng(97);
  const kernels::KernelTable& scalar = kernels::scalar_table();
  for (const simd::Isa isa : testable_isas()) {
    if (isa == simd::Isa::kScalar) continue;
    const kernels::KernelTable& vec = kernels::table_for(isa);
    for (int width : {1, 2, 3, 7, 8, 9, 15, 16, 17, 64, 129}) {
      const auto n = static_cast<std::size_t>(width);
      std::vector<float> L(n), a(n), b(n);
      std::vector<std::int32_t> labels(n);
      for (std::size_t i = 0; i < n; ++i) {
        L[i] = static_cast<float>(rng.next_double(0.0, 100.0));
        a[i] = static_cast<float>(rng.next_double(-128.0, 127.0));
        b[i] = static_cast<float>(rng.next_double(-128.0, 127.0));
        labels[i] = static_cast<std::int32_t>(rng.next_below(5));
      }
      std::vector<Sigma> want(5), got(5);
      scalar.accumulate_row(L.data(), a.data(), b.data(), 3, width, 11,
                            labels.data(), want.data());
      vec.accumulate_row(L.data(), a.data(), b.data(), 3, width, 11,
                         labels.data(), got.data());
      EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                               want.size() * sizeof(Sigma)))
          << "isa=" << simd::isa_name(isa) << " width=" << width;
    }
  }
}

TEST(TemporalSlicAllocations, SteadyStateFramesAreAllocationFree) {
  SlicParams params;
  params.num_superpixels = 120;
  params.max_iterations = 8;
  params.subsample_ratio = 0.5;
  TemporalSlic video(params);

  // A few same-geometry frames with different content.
  std::vector<RgbImage> frames;
  for (int f = 0; f < 5; ++f) {
    frames.push_back(
        generate_synthetic({160, 120}, 900 + static_cast<std::uint64_t>(f))
            .image);
  }

  for (std::size_t f = 0; f < frames.size(); ++f) {
    const std::uint64_t allocs = alloc_counter::count_allocations(
        [&] { (void)video.next_frame(frames[f]); });
    if (f >= 2) {
      EXPECT_EQ(allocs, 0u)
          << "frame " << f << " touched the heap in steady state";
    }
  }

  // A geometry change re-allocates (cold again), then settles back to zero.
  const RgbImage bigger = generate_synthetic({200, 150}, 77).image;
  (void)video.next_frame(bigger);
  (void)video.next_frame(bigger);
  const std::uint64_t allocs = alloc_counter::count_allocations(
      [&] { (void)video.next_frame(bigger); });
  EXPECT_EQ(allocs, 0u) << "steady state not re-reached after resize";
}

TEST(TemporalSlicAllocations, SteadyStateHoldsAtEveryThreadCount) {
  // Ratio 0.5 takes the masked accumulation path and its per-stripe mask
  // slices; ratio 1.0 the run-batched kernel path.
  GlobalThreadsGuard threads_guard;
  for (const double ratio : {1.0, 0.5}) {
    for (const int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);
      SlicParams params;
      params.num_superpixels = 120;
      params.max_iterations = 6;
      params.subsample_ratio = ratio;
      TemporalSlic video(params);
      const RgbImage frame = generate_synthetic({160, 120}, 321).image;
      (void)video.next_frame(frame);
      (void)video.next_frame(frame);
      const std::uint64_t allocs = alloc_counter::count_allocations(
          [&] { (void)video.next_frame(frame); });
      EXPECT_EQ(allocs, 0u) << "ratio=" << ratio << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace sslic
