// Behavioural tests for the SLIC algorithm family: baseline CPA SLIC,
// S-SLIC PPA/CPA subsampling, data-width quantization, the preemptive
// extension, instrumentation, and convergence (paper Sections 2-4).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <tuple>
#include <utility>

#include "dataset/synthetic.h"
#include "slic/grid.h"
#include "metrics/segmentation_metrics.h"
#include "slic/subset_schedule.h"
#include "slic/connectivity.h"
#include "slic/segmenter.h"
#include "slic/slic_baseline.h"
#include "slic/subsampled.h"
#include "slic/temporal.h"
#include "slic/tiled.h"

namespace sslic {
namespace {

SyntheticParams test_image_params() {
  SyntheticParams p;
  p.width = 120;
  p.height = 80;
  p.min_regions = 4;
  p.max_regions = 8;
  return p;
}

const GroundTruthImage& test_case() {
  static const GroundTruthImage gt = generate_synthetic(test_image_params(), 7);
  return gt;
}

SlicParams quick_params() {
  SlicParams p;
  p.num_superpixels = 40;
  p.compactness = 10.0;
  p.max_iterations = 8;
  return p;
}

void expect_valid_segmentation(const Segmentation& seg, int width, int height) {
  EXPECT_EQ(seg.labels.width(), width);
  EXPECT_EQ(seg.labels.height(), height);
  for (const auto label : seg.labels.pixels()) EXPECT_GE(label, 0);
}

// ----------------------------------------------------------- baseline SLIC

TEST(CpaSlic, ProducesValidConnectedSegmentation) {
  const auto& gt = test_case();
  const Segmentation seg = CpaSlic(quick_params()).segment(gt.image);
  expect_valid_segmentation(seg, 120, 80);
  EXPECT_TRUE(is_fully_connected(seg.labels));
}

TEST(CpaSlic, LabelCountNearRequestedK) {
  const auto& gt = test_case();
  const Segmentation seg = CpaSlic(quick_params()).segment(gt.image);
  const int count = count_labels(seg.labels);
  EXPECT_GE(count, 20);
  EXPECT_LE(count, 70);
}

TEST(CpaSlic, SuperpixelsRespectColorBoundaries) {
  const auto& gt = test_case();
  const Segmentation seg = CpaSlic(quick_params()).segment(gt.image);
  // Superpixels must align well enough with ground truth for a high ASA.
  EXPECT_GT(achievable_segmentation_accuracy(seg.labels, gt.truth), 0.90);
  EXPECT_LT(undersegmentation_error_min(seg.labels, gt.truth), 0.10);
}

TEST(CpaSlic, TraceHasOneEntryPerIteration) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.max_iterations = 5;
  const Segmentation seg = CpaSlic(p).segment(gt.image);
  EXPECT_EQ(seg.iterations_run, 5);
  ASSERT_EQ(seg.trace.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(seg.trace[static_cast<std::size_t>(i)].iteration, i);
}

TEST(CpaSlic, CenterMovementDecays) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.max_iterations = 10;
  const Segmentation seg = CpaSlic(p).segment(gt.image);
  // k-means-style convergence: late movement well below early movement.
  const double early = seg.trace.front().center_movement;
  const double late = seg.trace.back().center_movement;
  EXPECT_LT(late, early * 0.5 + 1e-9);
}

TEST(CpaSlic, ConvergenceThresholdStopsEarly) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.max_iterations = 50;
  p.convergence_threshold = 0.5;
  const Segmentation seg = CpaSlic(p).segment(gt.image);
  EXPECT_LT(seg.iterations_run, 50);
}

TEST(CpaSlic, CallbackSeesEveryIteration) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.max_iterations = 4;
  int calls = 0;
  const Segmentation seg = CpaSlic(p).segment(
      gt.image, [&](const IterationStats& stats, const LabelImage& labels,
                    const std::vector<ClusterCenter>& centers) {
        EXPECT_EQ(stats.iteration, calls);
        EXPECT_EQ(labels.width(), 120);
        EXPECT_FALSE(centers.empty());
        ++calls;
      });
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(seg.iterations_run, 4);
}

// Every driver times the five Table 1 stages into its Instrumentation
// record. The Lab entry points (the tiled driver included) start after
// conversion and leave convert_ms at 0.
TEST(Instrumentation, EveryDriverTimesEveryStage) {
  const auto& gt = test_case();
  const LabImage lab = srgb_to_lab(gt.image);
  const SlicParams params = quick_params();
  SlicParams half = params;
  half.subsample_ratio = 0.5;
  TiledConfig tiled;
  tiled.force_tiled = true;
  tiled.tile_width = 48;
  tiled.tile_height = 32;
  TemporalSlic temporal(half);

  struct Driver {
    const char* name;
    bool converts;
    std::function<void(Instrumentation*)> run;
  };
  const Driver drivers[] = {
      {"CpaSlic", true,
       [&](Instrumentation* i) { (void)CpaSlic(params).segment(gt.image, {}, i); }},
      {"PpaSlic(0.5)", true,
       [&](Instrumentation* i) { (void)PpaSlic(half).segment(gt.image, {}, i); }},
      {"TemporalSlic, cold frame", true,
       [&](Instrumentation* i) { (void)temporal.next_frame(gt.image, i); }},
      {"TemporalSlic, warm frame", true,
       [&](Instrumentation* i) { (void)temporal.next_frame(gt.image, i); }},
      {"run_segmenter SLIC", true,
       [&](Instrumentation* i) {
         (void)run_segmenter(Algorithm::kSlic, params, gt.image,
                             DataWidth::float64(), {}, i);
       }},
      {"run_segmenter S-SLIC-CPA(0.5)", true,
       [&](Instrumentation* i) {
         (void)run_segmenter(Algorithm::kSslicCpa, half, gt.image,
                             DataWidth::float64(), {}, i);
       }},
      {"run_segmenter S-SLIC-PPA(0.5)", true,
       [&](Instrumentation* i) {
         (void)run_segmenter(Algorithm::kSslicPpa, half, gt.image,
                             DataWidth::float64(), {}, i);
       }},
      {"CpaSlic::segment_lab", false,
       [&](Instrumentation* i) { (void)CpaSlic(params).segment_lab(lab, {}, i); }},
      {"PpaSlic::segment_lab_warm", false,
       [&](Instrumentation* i) {
         const Segmentation cold = PpaSlic(half).segment_lab(lab);
         (void)PpaSlic(half).segment_lab_warm(lab, cold.centers, {}, i);
       }},
      {"TiledSegmenter CPA", false,
       [&](Instrumentation* i) {
         (void)TiledSegmenter(Algorithm::kSslicCpa, half, tiled)
             .segment_lab(lab, i);
       }},
      {"TiledSegmenter PPA", false,
       [&](Instrumentation* i) {
         (void)TiledSegmenter(Algorithm::kSslicPpa, half, tiled)
             .segment_lab(lab, i);
       }},
  };
  for (const Driver& driver : drivers) {
    SCOPED_TRACE(driver.name);
    Instrumentation instr;
    driver.run(&instr);
    if (driver.converts) {
      EXPECT_GT(instr.convert_ms, 0.0);
    } else {
      EXPECT_EQ(instr.convert_ms, 0.0);
    }
    EXPECT_GT(instr.init_ms, 0.0);
    EXPECT_GT(instr.assign_ms, 0.0);
    EXPECT_GT(instr.update_ms, 0.0);
    EXPECT_GT(instr.connectivity_ms, 0.0);
  }
}

TEST(CpaSlic, InstrumentationCountsWindowScans) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.max_iterations = 3;
  p.enforce_connectivity = false;
  Instrumentation instr;
  (void)CpaSlic(p).segment(gt.image, {}, &instr);
  EXPECT_EQ(instr.iterations, 3u);
  // Each pixel lies in ~4 overlapping 2Sx2S windows (Section 4.2).
  const double evals_per_pixel_iter =
      static_cast<double>(instr.ops.distance_evals) / (120.0 * 80.0 * 3.0);
  EXPECT_GT(evals_per_pixel_iter, 2.5);
  EXPECT_LT(evals_per_pixel_iter, 6.0);
}

TEST(CpaSlic, InvalidParamsThrow) {
  SlicParams p = quick_params();
  p.num_superpixels = 0;
  EXPECT_THROW(CpaSlic{p}, ContractViolation);
  p = quick_params();
  p.compactness = 0.0;
  EXPECT_THROW(CpaSlic{p}, ContractViolation);
  p = quick_params();
  p.max_iterations = 0;
  EXPECT_THROW(CpaSlic{p}, ContractViolation);
}

// ---------------------------------------------------------------- PPA SLIC

TEST(PpaSlic, ProducesValidConnectedSegmentation) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  const Segmentation seg = PpaSlic(p).segment(gt.image);
  expect_valid_segmentation(seg, 120, 80);
  EXPECT_TRUE(is_fully_connected(seg.labels));
}

TEST(PpaSlic, QualityComparableToBaseline) {
  const auto& gt = test_case();
  const Segmentation base = CpaSlic(quick_params()).segment(gt.image);

  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.max_iterations = 16;  // same number of full sweeps (8)
  const Segmentation sub = PpaSlic(p).segment(gt.image);

  const double use_base = undersegmentation_error_min(base.labels, gt.truth);
  const double use_sub = undersegmentation_error_min(sub.labels, gt.truth);
  // The paper's core claim (Fig. 2): subsampling does not degrade quality.
  EXPECT_LT(use_sub, use_base + 0.02);
}

TEST(PpaSlic, SubsetIterationVisitsRatioOfPixels) {
  const auto& gt = test_case();
  for (const double ratio : {1.0, 0.5, 0.25}) {
    SlicParams p = quick_params();
    p.subsample_ratio = ratio;
    p.max_iterations = 4;
    const Segmentation seg = PpaSlic(p).segment(gt.image);
    for (const auto& stats : seg.trace) {
      EXPECT_NEAR(static_cast<double>(stats.pixels_visited), 120 * 80 * ratio,
                  120 * 80 * ratio * 0.02)
          << "ratio " << ratio;
    }
  }
}

TEST(PpaSlic, NineDistancesPerVisitedPixel) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.max_iterations = 4;
  p.enforce_connectivity = false;
  Instrumentation instr;
  const Segmentation seg = PpaSlic(p).segment(gt.image, {}, &instr);
  std::uint64_t visited = 0;
  for (const auto& stats : seg.trace) visited += stats.pixels_visited;
  EXPECT_EQ(instr.ops.distance_evals, 9u * visited);
  EXPECT_EQ(instr.ops.compare_ops, 8u * visited);
  EXPECT_EQ(instr.ops.accumulate_ops, 6u * visited);
}

TEST(PpaSlic, LabelsAlwaysFromCandidateSet) {
  // Before connectivity enforcement, every pixel's label must be one of its
  // 9 static candidates.
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.enforce_connectivity = false;
  p.subsample_ratio = 0.5;
  const Segmentation seg = PpaSlic(p).segment(gt.image);

  const CenterGrid grid(120, 80, p.num_superpixels);
  const auto candidates = build_candidate_map(grid);
  for (int y = 0; y < 80; ++y) {
    for (int x = 0; x < 120; ++x) {
      const auto& list = candidates[static_cast<std::size_t>(
          grid.center_index(grid.cell_x(x), grid.cell_y(y)))];
      EXPECT_NE(std::find(list.begin(), list.end(), seg.labels(x, y)), list.end())
          << "pixel " << x << ',' << y;
    }
  }
}

TEST(PpaSlic, RatioOneMatchesGslicStyleFullScan) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 1.0;
  const Segmentation seg = PpaSlic(p).segment(gt.image);
  for (const auto& stats : seg.trace)
    EXPECT_EQ(stats.pixels_visited, 120u * 80u);
  EXPECT_GT(achievable_segmentation_accuracy(seg.labels, gt.truth), 0.90);
}

// ------------------------------------------------- data-width quantization

TEST(PpaSlic, EightBitMatchesFloatClosely) {
  // Section 6.1's headline: at 8 bits the quality deltas are ~0.003 USE.
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.max_iterations = 12;

  const Segmentation f64 = PpaSlic(p, DataWidth::float64()).segment(gt.image);
  const Segmentation fx8 = PpaSlic(p, DataWidth::fixed(8)).segment(gt.image);

  const double use_f = undersegmentation_error_min(f64.labels, gt.truth);
  const double use_8 = undersegmentation_error_min(fx8.labels, gt.truth);
  EXPECT_NEAR(use_8, use_f, 0.015);
}

TEST(PpaSlic, FourBitVisiblyWorseThanEightBit) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.max_iterations = 12;

  const Segmentation fx8 = PpaSlic(p, DataWidth::fixed(8)).segment(gt.image);
  const Segmentation fx4 = PpaSlic(p, DataWidth::fixed(4)).segment(gt.image);

  const double asa_8 = achievable_segmentation_accuracy(fx8.labels, gt.truth);
  const double asa_4 = achievable_segmentation_accuracy(fx4.labels, gt.truth);
  EXPECT_LT(asa_4, asa_8 + 1e-9);
}

// --------------------------------------------------------------- CPA S-SLIC

TEST(CpaSubsampled, HalfRatioUpdatesHalfTheCenters) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.max_iterations = 4;
  const Segmentation seg = CpaSlic(p).segment(gt.image);
  expect_valid_segmentation(seg, 120, 80);
  // Each iteration scans roughly half the window pixels of a full pass.
  SlicParams full = quick_params();
  full.max_iterations = 4;
  const Segmentation fseg = CpaSlic(full).segment(gt.image);
  EXPECT_LT(seg.trace[1].pixels_visited, fseg.trace[1].pixels_visited * 6 / 10);
}

TEST(CpaSubsampled, QualityReasonable) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.max_iterations = 16;
  const Segmentation seg = CpaSlic(p).segment(gt.image);
  EXPECT_GT(achievable_segmentation_accuracy(seg.labels, gt.truth), 0.85);
}

// ------------------------------------------------------------- preemptive

TEST(Preemptive, SkipsTilesOnEasyImage) {
  // A flat image converges immediately: after two calm updates most tiles
  // must be skipped.
  RgbImage flat(120, 80, Rgb8{120, 130, 140});
  SlicParams p = quick_params();
  p.subsample_ratio = 1.0;
  p.max_iterations = 10;
  p.preemptive = true;
  Instrumentation instr;
  (void)PpaSlic(p).segment(flat, {}, &instr);
  EXPECT_GT(instr.tiles_skipped, 0u);
}

TEST(Preemptive, QualityPreservedOnTestImage) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.max_iterations = 16;
  const Segmentation plain = PpaSlic(p).segment(gt.image);
  p.preemptive = true;
  const Segmentation pre = PpaSlic(p).segment(gt.image);
  const double asa_plain = achievable_segmentation_accuracy(plain.labels, gt.truth);
  const double asa_pre = achievable_segmentation_accuracy(pre.labels, gt.truth);
  EXPECT_NEAR(asa_pre, asa_plain, 0.03);
}

TEST(Preemptive, AccumulatesExactlyTheAssignedPixels) {
  // 481x321 at K=300 is a 21x14 grid that divides neither dimension, so
  // the assignment tiles and the initial-label cells disagree on boundary
  // pixels. Accumulation must skip exactly the tiles assignment skipped:
  // six sigma adds per assigned pixel, no more and no fewer.
  const GroundTruthImage gt = generate_synthetic({481, 321}, 5);
  SlicParams p;
  p.num_superpixels = 300;
  p.max_iterations = 12;
  p.preemptive = true;
  Instrumentation instr;
  const Segmentation seg = PpaSlic(p).segment(gt.image, {}, &instr);
  ASSERT_GT(instr.tiles_skipped, 0u) << "no tile skipped: nothing tested";
  std::uint64_t assigned = 0;
  for (const IterationStats& it : seg.trace) assigned += it.pixels_visited;
  EXPECT_EQ(6 * assigned, instr.ops.accumulate_ops);
}

// ------------------------------------------------------ subset pattern (PPA)

TEST(PpaSlic, RowInterleavedVisitsRatioOfPixels) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.subset_pattern = SubsetPattern::kRowInterleaved;
  p.max_iterations = 4;
  const Segmentation seg = PpaSlic(p).segment(gt.image);
  for (const auto& stats : seg.trace)
    EXPECT_EQ(stats.pixels_visited, 120u * 80u / 2u);
}

TEST(PpaSlic, RowInterleavedQualityCloseToDithered) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.max_iterations = 16;
  const Segmentation dithered = PpaSlic(p).segment(gt.image);
  p.subset_pattern = SubsetPattern::kRowInterleaved;
  const Segmentation rows = PpaSlic(p).segment(gt.image);
  const double asa_d = achievable_segmentation_accuracy(dithered.labels, gt.truth);
  const double asa_r = achievable_segmentation_accuracy(rows.labels, gt.truth);
  EXPECT_NEAR(asa_r, asa_d, 0.03);
}

// Parameterized sweep: the PPA stays valid across K, ratio, and pattern.
class PpaConfigSweep
    : public ::testing::TestWithParam<std::tuple<int, double, SubsetPattern>> {};

TEST_P(PpaConfigSweep, ValidSegmentationEverywhere) {
  const auto [k, ratio, pattern] = GetParam();
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.num_superpixels = k;
  p.subsample_ratio = ratio;
  p.subset_pattern = pattern;
  p.max_iterations = 6;
  const Segmentation seg = PpaSlic(p).segment(gt.image);
  expect_valid_segmentation(seg, 120, 80);
  EXPECT_TRUE(is_fully_connected(seg.labels));
  EXPECT_GE(count_labels(seg.labels), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PpaConfigSweep,
    ::testing::Combine(::testing::Values(6, 40, 150),
                       ::testing::Values(1.0, 0.5, 0.25),
                       ::testing::Values(SubsetPattern::kDithered,
                                         SubsetPattern::kRowInterleaved)));

// ----------------------------------------------------------- temporal warm start

TEST(TemporalSlic, WarmFramesUseFewerIterations) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.max_iterations = 16;
  TemporalSlic video(p);
  EXPECT_FALSE(video.has_state());

  const Segmentation first = video.next_frame(gt.image);
  EXPECT_TRUE(video.has_state());
  EXPECT_EQ(first.iterations_run, 16);

  const Segmentation second = video.next_frame(gt.image);
  EXPECT_EQ(second.iterations_run, video.warm_iterations());
  EXPECT_LT(second.iterations_run, first.iterations_run);
}

TEST(TemporalSlic, WarmQualityMatchesColdOnStaticScene) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.max_iterations = 16;
  TemporalSlic video(p);
  (void)video.next_frame(gt.image);
  const Segmentation warm = video.next_frame(gt.image);

  const Segmentation cold = PpaSlic(p).segment(gt.image);
  const double asa_warm = achievable_segmentation_accuracy(warm.labels, gt.truth);
  const double asa_cold = achievable_segmentation_accuracy(cold.labels, gt.truth);
  EXPECT_NEAR(asa_warm, asa_cold, 0.01);
}

TEST(TemporalSlic, ResetAndResolutionChangeGoCold) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.max_iterations = 6;
  TemporalSlic video(p);
  (void)video.next_frame(gt.image);
  video.reset();
  EXPECT_FALSE(video.has_state());

  (void)video.next_frame(gt.image);
  EXPECT_TRUE(video.has_state());
  // A different resolution cannot reuse the centers: cold restart.
  RgbImage other(64, 48, Rgb8{90, 90, 90});
  const Segmentation seg = video.next_frame(other);
  EXPECT_EQ(seg.iterations_run, 6);
  EXPECT_EQ(seg.labels.width(), 64);
}

TEST(TemporalSlic, WarmStartSizeMismatchThrows) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  const PpaSlic segmenter(p);
  const LabImage lab = srgb_to_lab(gt.image);
  const std::vector<ClusterCenter> wrong(3);
  EXPECT_THROW((void)segmenter.segment_lab_warm(lab, wrong), ContractViolation);
}

// --------------------------------------------------------------- segmenter

TEST(Segmenter, NamesAreDescriptive) {
  EXPECT_EQ(algorithm_name(Algorithm::kSlic, 1.0), "SLIC");
  EXPECT_EQ(algorithm_name(Algorithm::kSslicPpa, 0.5), "S-SLIC-PPA (0.5)");
  EXPECT_EQ(algorithm_name(Algorithm::kSslicCpa, 0.25), "S-SLIC-CPA (0.25)");
}

TEST(Segmenter, DispatchesAllAlgorithms) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.max_iterations = 4;
  for (const auto algorithm :
       {Algorithm::kSlic, Algorithm::kSslicPpa, Algorithm::kSslicCpa}) {
    const Segmentation seg = run_segmenter(algorithm, p, gt.image);
    expect_valid_segmentation(seg, 120, 80);
  }
}

TEST(Segmenter, LabEntryPointMatchesRgbEntryPoint) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.max_iterations = 3;
  const LabImage lab = srgb_to_lab(gt.image);
  const Segmentation a = run_segmenter(Algorithm::kSslicPpa, p, gt.image);
  const Segmentation b = run_segmenter_lab(Algorithm::kSslicPpa, p, lab);
  EXPECT_EQ(a.labels, b.labels);
}

// Parameterized determinism sweep: all algorithms produce identical results
// across repeated runs (no hidden state).
class DeterminismSweep
    : public ::testing::TestWithParam<std::pair<Algorithm, double>> {};

TEST_P(DeterminismSweep, RepeatableLabelMaps) {
  const auto [algorithm, ratio] = GetParam();
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = ratio;
  p.max_iterations = 4;
  const Segmentation a = run_segmenter(algorithm, p, gt.image);
  const Segmentation b = run_segmenter(algorithm, p, gt.image);
  EXPECT_EQ(a.labels, b.labels);
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, DeterminismSweep,
    ::testing::Values(std::pair{Algorithm::kSlic, 1.0},
                      std::pair{Algorithm::kSslicPpa, 1.0},
                      std::pair{Algorithm::kSslicPpa, 0.5},
                      std::pair{Algorithm::kSslicPpa, 0.25},
                      std::pair{Algorithm::kSslicCpa, 0.5}));

}  // namespace
}  // namespace sslic
