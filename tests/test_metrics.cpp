// Tests for src/metrics: undersegmentation error, boundary recall/precision,
// ASA, compactness (paper Section 3's quality metrics).
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "metrics/segmentation_metrics.h"

namespace sslic {
namespace {

/// Left/right split ground truth on a w x h canvas.
LabelImage split_vertical(int w, int h, int split_x) {
  LabelImage gt(w, h, 0);
  for (int y = 0; y < h; ++y)
    for (int x = split_x; x < w; ++x) gt(x, y) = 1;
  return gt;
}

/// Regular grid superpixels with cells of size cw x ch.
LabelImage grid_labels(int w, int h, int cw, int ch) {
  LabelImage labels(w, h);
  const int nx = (w + cw - 1) / cw;
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) labels(x, y) = (y / ch) * nx + (x / cw);
  return labels;
}

// ------------------------------------------------------------ OverlapTable

TEST(OverlapTable, CountsAndSizes) {
  const LabelImage gt = split_vertical(8, 4, 4);
  const LabelImage sp = split_vertical(8, 4, 2);
  const OverlapTable table(sp, gt);
  EXPECT_EQ(table.num_superpixels(), 2);
  EXPECT_EQ(table.num_regions(), 2);
  EXPECT_EQ(table.num_pixels(), 32u);
  EXPECT_EQ(table.superpixel_sizes()[0], 8);   // 2 columns x 4 rows
  EXPECT_EQ(table.superpixel_sizes()[1], 24);  // 6 columns x 4 rows
  EXPECT_EQ(table.region_sizes()[0], 16);
  // Overlaps: sp0 fully in gt0 (8), sp1 split 8/16 across gt0/gt1.
  ASSERT_EQ(table.overlaps().size(), 3u);
}

TEST(OverlapTable, MismatchedSizesThrow) {
  const LabelImage a(4, 4, 0);
  const LabelImage b(5, 4, 0);
  EXPECT_THROW(OverlapTable(a, b), ContractViolation);
}

TEST(OverlapTable, NegativeLabelThrows) {
  LabelImage a(2, 2, 0);
  LabelImage b(2, 2, 0);
  a(0, 0) = -3;
  EXPECT_THROW(OverlapTable(a, b), ContractViolation);
}

// --------------------------------------------------- undersegmentation err

TEST(Use, PerfectSegmentationIsZero) {
  const LabelImage gt = split_vertical(16, 8, 8);
  EXPECT_DOUBLE_EQ(undersegmentation_error(gt, gt), 0.0);
  EXPECT_DOUBLE_EQ(undersegmentation_error_min(gt, gt), 0.0);
}

TEST(Use, RefinementOfTruthIsZero) {
  // Superpixels strictly finer than ground truth never leak.
  const LabelImage gt = split_vertical(16, 8, 8);
  const LabelImage sp = grid_labels(16, 8, 4, 4);  // aligned to the split
  EXPECT_DOUBLE_EQ(undersegmentation_error(sp, gt), 0.0);
  EXPECT_DOUBLE_EQ(undersegmentation_error_min(sp, gt), 0.0);
}

TEST(Use, LeakingSuperpixelIsCharged) {
  const LabelImage gt = split_vertical(16, 8, 8);
  // One superpixel covering everything: maximal leak.
  const LabelImage sp(16, 8, 0);
  // Achanta USE: the superpixel is charged its full size |sp| = N against
  // both regions => 2N/N - 1 = 1.
  EXPECT_DOUBLE_EQ(undersegmentation_error(sp, gt), 1.0);
  // Min-variant: each of the two overlap pairs contributes
  // min(N/2, N - N/2) = N/2, so the total charge is N and USE_min = 1.
  EXPECT_NEAR(undersegmentation_error_min(sp, gt), 1.0, 1e-12);
}

TEST(Use, SmallLeakBelowThresholdIgnored) {
  // Superpixel leaks 1 pixel across the boundary: below the 5% threshold
  // it must not be charged by the Achanta variant but is charged (just 1px)
  // by the min variant.
  LabelImage gt = split_vertical(40, 10, 20);
  LabelImage sp = grid_labels(40, 10, 10, 10);  // 4 superpixels of 100 px
  // Move one boundary pixel of sp cell 1 into gt region 1's territory:
  sp(20, 0) = 1;  // cell index 2 pixel claimed by sp 1 -> sp1 leaks 1 px
  const double achanta = undersegmentation_error(sp, gt, 0.05);
  EXPECT_DOUBLE_EQ(achanta, 0.0);
  // Min-variant charges both overlap pairs of sp1: min(100,1) + min(1,100).
  const double min_variant = undersegmentation_error_min(sp, gt);
  EXPECT_NEAR(min_variant, 2.0 / 400.0, 1e-12);
}

TEST(Use, MonotoneInLeakSize) {
  const LabelImage gt = split_vertical(40, 10, 20);
  double prev = -1.0;
  for (const int shift : {0, 2, 4, 6}) {
    // Superpixels misaligned with the boundary by `shift` columns.
    const LabelImage sp = [&] {
      LabelImage s(40, 10, 0);
      for (int y = 0; y < 10; ++y)
        for (int x = 20 + shift; x < 40; ++x) s(x, y) = 1;
      return s;
    }();
    const double use = undersegmentation_error_min(sp, gt);
    EXPECT_GE(use, prev);
    prev = use;
  }
}

// ---------------------------------------------------------- boundary recall

TEST(BoundaryRecall, PerfectWhenIdentical) {
  const LabelImage gt = split_vertical(16, 8, 8);
  EXPECT_DOUBLE_EQ(boundary_recall(gt, gt, 0), 1.0);
}

TEST(BoundaryRecall, ZeroWhenNoBoundaries) {
  const LabelImage gt = split_vertical(32, 8, 16);
  const LabelImage sp(32, 8, 0);  // single superpixel: no boundaries at all
  EXPECT_DOUBLE_EQ(boundary_recall(sp, gt, 2), 0.0);
}

TEST(BoundaryRecall, ToleranceForgivesSmallOffsets) {
  const LabelImage gt = split_vertical(32, 8, 16);
  const LabelImage sp = split_vertical(32, 8, 18);  // boundary off by 2
  EXPECT_DOUBLE_EQ(boundary_recall(sp, gt, 0), 0.0);
  EXPECT_DOUBLE_EQ(boundary_recall(sp, gt, 3), 1.0);
}

TEST(BoundaryRecall, OneWhenTruthHasNoBoundary) {
  const LabelImage gt(8, 8, 0);
  const LabelImage sp = grid_labels(8, 8, 4, 4);
  EXPECT_DOUBLE_EQ(boundary_recall(sp, gt, 2), 1.0);  // vacuous recall
}

TEST(BoundaryRecall, MonotoneInTolerance) {
  const LabelImage gt = split_vertical(64, 16, 32);
  const LabelImage sp = split_vertical(64, 16, 37);
  double prev = -1.0;
  for (int tol = 0; tol <= 6; ++tol) {
    const double r = boundary_recall(sp, gt, tol);
    EXPECT_GE(r, prev);
    prev = r;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);
}

TEST(BoundaryPrecision, PenalizesExtraBoundaries) {
  const LabelImage gt = split_vertical(32, 32, 16);
  const LabelImage sp = grid_labels(32, 32, 4, 4);  // many extra boundaries
  EXPECT_LT(boundary_precision(sp, gt, 1), 0.6);
  EXPECT_DOUBLE_EQ(boundary_recall(sp, gt, 1), 1.0);
}

// -------------------------------------------------------------------- ASA

TEST(Asa, PerfectForRefinement) {
  const LabelImage gt = split_vertical(16, 8, 8);
  const LabelImage sp = grid_labels(16, 8, 4, 4);
  EXPECT_DOUBLE_EQ(achievable_segmentation_accuracy(sp, gt), 1.0);
}

TEST(Asa, HalfForMaximalConfusion) {
  const LabelImage gt = split_vertical(16, 8, 8);
  const LabelImage sp(16, 8, 0);  // one superpixel split 50/50
  EXPECT_DOUBLE_EQ(achievable_segmentation_accuracy(sp, gt), 0.5);
}

TEST(Asa, BetweenZeroAndOne) {
  const LabelImage gt = split_vertical(20, 10, 7);
  const LabelImage sp = grid_labels(20, 10, 6, 5);
  const double asa = achievable_segmentation_accuracy(sp, gt);
  EXPECT_GT(asa, 0.5);
  EXPECT_LE(asa, 1.0);
}

// ------------------------------------------------------------- compactness

TEST(Compactness, SquaresBeatStripes) {
  const LabelImage squares = grid_labels(32, 32, 8, 8);
  const LabelImage stripes = grid_labels(32, 32, 2, 32);
  EXPECT_GT(compactness(squares), compactness(stripes));
}

TEST(Compactness, InUnitInterval) {
  const LabelImage labels = grid_labels(30, 20, 7, 5);
  const double c = compactness(labels);
  EXPECT_GT(c, 0.0);
  EXPECT_LE(c, 1.0);
}

// -------------------------------------------------------- extended metrics

TEST(ExplainedVariation, PerfectWhenSuperpixelsMatchColorRegions) {
  LabImage lab(16, 8, LabF{20.0f, 0.0f, 0.0f});
  for (int y = 0; y < 8; ++y)
    for (int x = 8; x < 16; ++x) lab.set(x, y, {80.0f, 10.0f, -10.0f});
  const LabelImage sp = split_vertical(16, 8, 8);
  EXPECT_NEAR(explained_variation(sp, lab), 1.0, 1e-12);
}

TEST(ExplainedVariation, ZeroWhenSuperpixelsIgnoreColor) {
  // Horizontal color split, horizontal-blind vertical superpixels that each
  // contain the same mix: means equal the global mean -> nothing explained.
  LabImage lab(16, 8, LabF{20.0f, 0.0f, 0.0f});
  for (int y = 4; y < 8; ++y)
    for (int x = 0; x < 16; ++x) lab.set(x, y, {80.0f, 0.0f, 0.0f});
  const LabelImage sp = split_vertical(16, 8, 8);  // vertical split
  EXPECT_NEAR(explained_variation(sp, lab), 0.0, 1e-12);
}

TEST(ExplainedVariation, FlatImageIsFullyExplained) {
  const LabImage lab(8, 8, LabF{50.0f, 0.0f, 0.0f});
  const LabelImage sp = grid_labels(8, 8, 4, 4);
  EXPECT_DOUBLE_EQ(explained_variation(sp, lab), 1.0);
}

TEST(ExplainedVariation, MonotoneInPartitionRefinement) {
  // A finer partition can only explain at least as much variance.
  LabImage lab(32, 32);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x)
      lab.set(x, y, {static_cast<float>((x * 13 + y * 7) % 60), 0.0f, 0.0f});
  const double coarse = explained_variation(grid_labels(32, 32, 16, 16), lab);
  const double fine = explained_variation(grid_labels(32, 32, 4, 4), lab);
  EXPECT_GE(fine, coarse - 1e-12);
}

TEST(ContourDensity, CountsBoundaryFraction) {
  const LabelImage one(8, 8, 0);
  EXPECT_DOUBLE_EQ(contour_density(one), 0.0);
  const LabelImage split = split_vertical(8, 8, 4);
  EXPECT_DOUBLE_EQ(contour_density(split), 8.0 / 64.0);  // one column
  EXPECT_GT(contour_density(grid_labels(8, 8, 2, 2)),
            contour_density(grid_labels(8, 8, 4, 4)));
}

TEST(VariationOfInformation, ZeroForIdenticalUpToRelabeling) {
  const LabelImage a = split_vertical(16, 8, 8);
  LabelImage b = a;
  for (auto& v : b.pixels()) v = 1 - v;  // swap labels
  EXPECT_NEAR(variation_of_information(a, b), 0.0, 1e-12);
}

TEST(VariationOfInformation, SymmetricAndPositiveForDifferentPartitions) {
  const LabelImage a = split_vertical(16, 8, 8);
  const LabelImage b = grid_labels(16, 8, 4, 4);
  const double ab = variation_of_information(a, b);
  const double ba = variation_of_information(b, a);
  EXPECT_GT(ab, 0.0);
  EXPECT_NEAR(ab, ba, 1e-12);
}

TEST(VariationOfInformation, SingleLabelVsSplitIsEntropy) {
  // VI(trivial, 50/50 split) = H(split) = ln 2.
  const LabelImage trivial(16, 8, 0);
  const LabelImage split = split_vertical(16, 8, 8);
  EXPECT_NEAR(variation_of_information(trivial, split), std::log(2.0), 1e-12);
}

// ---------------------------------------------------- multi-annotator eval

TEST(MultiGt, SingleAnnotatorMatchesScalarMetrics) {
  const LabelImage gt = split_vertical(32, 16, 16);
  const LabelImage sp = grid_labels(32, 16, 8, 8);
  const MultiGroundTruthQuality q = evaluate_against_annotators(sp, {gt}, 2);
  EXPECT_EQ(q.annotators, 1);
  EXPECT_DOUBLE_EQ(q.use_mean, undersegmentation_error(sp, gt));
  EXPECT_DOUBLE_EQ(q.use_best, q.use_mean);
  EXPECT_DOUBLE_EQ(q.recall_mean, boundary_recall(sp, gt, 2));
  EXPECT_DOUBLE_EQ(q.asa_mean, achievable_segmentation_accuracy(sp, gt));
}

TEST(MultiGt, BestBoundsMean) {
  const LabelImage sp = grid_labels(32, 16, 8, 8);
  const std::vector<LabelImage> truths = {split_vertical(32, 16, 16),
                                          split_vertical(32, 16, 13),
                                          split_vertical(32, 16, 20)};
  const MultiGroundTruthQuality q = evaluate_against_annotators(sp, truths, 2);
  EXPECT_EQ(q.annotators, 3);
  EXPECT_LE(q.use_best, q.use_mean);
  EXPECT_GE(q.recall_best, q.recall_mean);
}

TEST(MultiGt, EmptyAnnotatorListThrows) {
  const LabelImage sp = grid_labels(8, 8, 4, 4);
  EXPECT_THROW(evaluate_against_annotators(sp, {}), ContractViolation);
}

// ------------------------------------------------------------ count_labels

TEST(CountLabels, CountsDistinct) {
  LabelImage labels(4, 1, 0);
  labels(1, 0) = 5;
  labels(2, 0) = 5;
  labels(3, 0) = 2;
  EXPECT_EQ(count_labels(labels), 3);
}

// Parameterized sweep: USE and recall behave sanely across grid coarseness.
class GridCoarsenessSweep : public ::testing::TestWithParam<int> {};

TEST_P(GridCoarsenessSweep, MetricsInRange) {
  const int cell = GetParam();
  const LabelImage gt = split_vertical(48, 24, 20);
  const LabelImage sp = grid_labels(48, 24, cell, cell);
  const double use = undersegmentation_error(sp, gt);
  const double use_min = undersegmentation_error_min(sp, gt);
  const double recall = boundary_recall(sp, gt, 2);
  EXPECT_GE(use, 0.0);
  EXPECT_GE(use_min, 0.0);
  EXPECT_LE(use_min, 0.5);
  EXPECT_GE(recall, 0.0);
  EXPECT_LE(recall, 1.0);
  // The min variant is never more pessimistic than Achanta's.
  EXPECT_LE(use_min, use + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Cells, GridCoarsenessSweep,
                         ::testing::Values(2, 3, 4, 6, 8, 12));

}  // namespace
}  // namespace sslic
