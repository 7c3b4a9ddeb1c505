// Tests for SLIC infrastructure: center grid, static 9-candidate tiling,
// subset schedules, and connectivity enforcement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>
#include <vector>

#include "common/check.h"
#include "slic/connectivity.h"
#include "slic/grid.h"
#include "slic/subset_schedule.h"

namespace sslic {
namespace {

// --------------------------------------------------------------- CenterGrid

TEST(CenterGrid, SpacingIsSqrtNOverK) {
  const CenterGrid grid(100, 100, 25);
  EXPECT_DOUBLE_EQ(grid.spacing(), std::sqrt(10000.0 / 25.0));
  EXPECT_EQ(grid.nx(), 5);
  EXPECT_EQ(grid.ny(), 5);
  EXPECT_EQ(grid.num_centers(), 25);
}

TEST(CenterGrid, HdAt5000MatchesPaperGeometry) {
  // 1920x1080 with K = 5000: S = 20.36, 94x53 grid (Table 4 setting).
  const CenterGrid grid(1920, 1080, 5000);
  EXPECT_NEAR(grid.spacing(), 20.36, 0.01);
  EXPECT_EQ(grid.nx(), 94);
  EXPECT_EQ(grid.ny(), 53);
  EXPECT_NEAR(grid.num_centers(), 5000, 50);
}

TEST(CenterGrid, CellLookupCoversImage) {
  const CenterGrid grid(97, 53, 30);  // awkward sizes
  for (int y = 0; y < 53; ++y) {
    for (int x = 0; x < 97; ++x) {
      const int gx = grid.cell_x(x);
      const int gy = grid.cell_y(y);
      EXPECT_GE(gx, 0);
      EXPECT_LT(gx, grid.nx());
      EXPECT_GE(gy, 0);
      EXPECT_LT(gy, grid.ny());
    }
  }
}

TEST(CenterGrid, TilesFollowTheAssignmentPartition) {
  // tile_column/tile_row invert the span formula [g*w/n, (g+1)*w/n),
  // including grids with more columns than pixels (empty spans).
  for (const auto& [w, h, k] : {std::tuple{481, 321, 300}, {37, 611, 50},
                                {16, 16, 400}, {400, 48, 8}}) {
    const CenterGrid grid(w, h, k);
    for (int gx = 0; gx < grid.nx(); ++gx)
      for (int x = gx * w / grid.nx(); x < (gx + 1) * w / grid.nx(); ++x)
        ASSERT_EQ(grid.tile_column(x), gx) << w << "x" << h << " x=" << x;
    for (int gy = 0; gy < grid.ny(); ++gy)
      for (int y = gy * h / grid.ny(); y < (gy + 1) * h / grid.ny(); ++y)
        ASSERT_EQ(grid.tile_row(y), gy) << w << "x" << h << " y=" << y;
  }
}

TEST(CenterGrid, CellLookupMonotone) {
  const CenterGrid grid(100, 60, 24);
  for (int x = 1; x < 100; ++x) EXPECT_GE(grid.cell_x(x), grid.cell_x(x - 1));
  for (int y = 1; y < 60; ++y) EXPECT_GE(grid.cell_y(y), grid.cell_y(y - 1));
}

TEST(CenterGrid, CenterPositionsInsideImage) {
  const CenterGrid grid(64, 48, 12);
  for (int gy = 0; gy < grid.ny(); ++gy) {
    for (int gx = 0; gx < grid.nx(); ++gx) {
      EXPECT_GT(grid.center_pos_x(gx), 0.0);
      EXPECT_LT(grid.center_pos_x(gx), 64.0);
      EXPECT_GT(grid.center_pos_y(gy), 0.0);
      EXPECT_LT(grid.center_pos_y(gy), 48.0);
    }
  }
}

TEST(CenterGrid, TinyImageStillValid) {
  const CenterGrid grid(16, 16, 1);
  EXPECT_EQ(grid.num_centers(), 1);
  EXPECT_EQ(grid.cell_x(15), 0);
}

// ------------------------------------------------------------ seed_centers

TEST(SeedCenters, SamplesColorsAtCenters) {
  LabImage lab(40, 40, LabF{10.0f, 0.0f, 0.0f});
  const CenterGrid grid(40, 40, 4);
  const auto centers = seed_centers(grid, lab, /*perturb=*/false);
  ASSERT_EQ(centers.size(), 4u);
  for (const auto& c : centers) {
    EXPECT_DOUBLE_EQ(c.L, 10.0);
    EXPECT_GE(c.x, 0.0);
    EXPECT_LT(c.x, 40.0);
  }
}

TEST(SeedCenters, PerturbationMovesOffEdges) {
  // Place a step edge so the nominal center position sits on a
  // high-gradient pixel; perturbation must move it to the low-gradient
  // side of its 3x3 neighbourhood.
  LabImage lab(30, 30, LabF{20.0f, 0.0f, 0.0f});
  const CenterGrid grid(30, 30, 1);
  const int cx = static_cast<int>(grid.center_pos_x(0));
  for (int y = 0; y < 30; ++y)
    for (int x = cx; x < 30; ++x) lab(x, y) = {90.0f, 0.0f, 0.0f};
  const auto centers = seed_centers(grid, lab, /*perturb=*/true);
  // Gradient is zero two columns away from the edge but large at cx-1..cx.
  EXPECT_NE(static_cast<int>(centers[0].x), cx);
  EXPECT_NE(static_cast<int>(centers[0].x), cx - 1);
}

TEST(SeedCenters, PerturbationBoundedTo3x3) {
  LabImage lab(60, 60);
  for (int y = 0; y < 60; ++y)
    for (int x = 0; x < 60; ++x)
      lab(x, y) = {static_cast<float>((x * 7 + y * 13) % 50), 0.0f, 0.0f};
  const CenterGrid grid(60, 60, 9);
  const auto plain = seed_centers(grid, lab, false);
  const auto perturbed = seed_centers(grid, lab, true);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_LE(std::abs(plain[i].x - perturbed[i].x), 1.0);
    EXPECT_LE(std::abs(plain[i].y - perturbed[i].y), 1.0);
  }
}

// ----------------------------------------------------------- candidate map

TEST(CandidateMap, InteriorTileHas9DistinctNeighbours) {
  const CenterGrid grid(100, 100, 25);  // 5x5 grid
  const auto map = build_candidate_map(grid);
  const CandidateList& mid = map[static_cast<std::size_t>(grid.center_index(2, 2))];
  std::set<std::int32_t> unique(mid.begin(), mid.end());
  EXPECT_EQ(unique.size(), 9u);
  // Must contain the tile's own center and all 8 neighbours.
  EXPECT_TRUE(unique.count(grid.center_index(2, 2)));
  EXPECT_TRUE(unique.count(grid.center_index(1, 1)));
  EXPECT_TRUE(unique.count(grid.center_index(3, 3)));
}

TEST(CandidateMap, CornerTileClampsToDuplicates) {
  const CenterGrid grid(100, 100, 25);
  const auto map = build_candidate_map(grid);
  const CandidateList& corner =
      map[static_cast<std::size_t>(grid.center_index(0, 0))];
  std::set<std::int32_t> unique(corner.begin(), corner.end());
  EXPECT_EQ(unique.size(), 4u);  // clamped: only 2x2 distinct neighbours
  EXPECT_TRUE(unique.count(grid.center_index(0, 0)));
}

TEST(CandidateMap, EveryCandidateValid) {
  const CenterGrid grid(97, 53, 30);
  const auto map = build_candidate_map(grid);
  for (const auto& list : map) {
    for (const auto c : list) {
      EXPECT_GE(c, 0);
      EXPECT_LT(c, grid.num_centers());
    }
  }
}

TEST(CandidateMap, CandidatesCoverCpaReach) {
  // Property behind "9 is the minimum number of nearest centers" (Sec 4.2):
  // the initial center of every pixel's own grid cell and all centers whose
  // 2Sx2S window could contain the pixel are among its 9 candidates — the
  // window reaches at most one grid cell away.
  const CenterGrid grid(120, 90, 20);
  const auto map = build_candidate_map(grid);
  for (int y = 0; y < 90; y += 7) {
    for (int x = 0; x < 120; x += 7) {
      const int gx = grid.cell_x(x);
      const int gy = grid.cell_y(y);
      const CandidateList& list =
          map[static_cast<std::size_t>(grid.center_index(gx, gy))];
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int nx = std::clamp(gx + dx, 0, grid.nx() - 1);
          const int ny = std::clamp(gy + dy, 0, grid.ny() - 1);
          const std::int32_t c = grid.center_index(nx, ny);
          EXPECT_NE(std::find(list.begin(), list.end(), c), list.end());
        }
      }
    }
  }
}

TEST(InitialLabels, MatchOwnGridCell) {
  const CenterGrid grid(50, 30, 6);
  const LabelImage labels = initial_labels(grid);
  for (int y = 0; y < 30; ++y)
    for (int x = 0; x < 50; ++x)
      EXPECT_EQ(labels(x, y), grid.center_index(grid.cell_x(x), grid.cell_y(y)));
}

// --------------------------------------------------------- SubsetSchedule

TEST(SubsetSchedule, RatioOneIsAlwaysActive) {
  const SubsetSchedule schedule = SubsetSchedule::from_ratio(1.0);
  EXPECT_EQ(schedule.count(), 1);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(schedule.active(3, 4, i));
}

TEST(SubsetSchedule, HalfIsCheckerboard) {
  const SubsetSchedule schedule = SubsetSchedule::from_ratio(0.5);
  EXPECT_EQ(schedule.count(), 2);
  EXPECT_NE(schedule.subset_of(0, 0), schedule.subset_of(1, 0));
  EXPECT_NE(schedule.subset_of(0, 0), schedule.subset_of(0, 1));
  EXPECT_EQ(schedule.subset_of(0, 0), schedule.subset_of(1, 1));
}

TEST(SubsetSchedule, QuarterIsBayer2x2) {
  const SubsetSchedule schedule = SubsetSchedule::from_ratio(0.25);
  EXPECT_EQ(schedule.count(), 4);
  std::set<int> block;
  block.insert(schedule.subset_of(0, 0));
  block.insert(schedule.subset_of(1, 0));
  block.insert(schedule.subset_of(0, 1));
  block.insert(schedule.subset_of(1, 1));
  EXPECT_EQ(block.size(), 4u);  // every 2x2 block holds all four subsets
}

TEST(SubsetSchedule, NonReciprocalRatioThrows) {
  EXPECT_THROW(SubsetSchedule::from_ratio(0.3), ContractViolation);
  EXPECT_THROW(SubsetSchedule::from_ratio(0.0), ContractViolation);
  EXPECT_THROW(SubsetSchedule::from_ratio(1.5), ContractViolation);
}

// The round-robin coverage property the paper's convergence argument needs:
// every pixel is visited exactly once per `count` consecutive iterations,
// and subsets are equal-sized to within a pixel row.
class SubsetCoverageSweep : public ::testing::TestWithParam<int> {};

TEST_P(SubsetCoverageSweep, EveryPixelVisitedOncePerRound) {
  const int count = GetParam();
  const SubsetSchedule schedule{count};
  const int w = 37, h = 23;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      int visits = 0;
      for (int iter = 0; iter < count; ++iter)
        visits += schedule.active(x, y, iter);
      EXPECT_EQ(visits, 1) << "pixel " << x << ',' << y;
    }
  }
}

TEST_P(SubsetCoverageSweep, SubsetsBalanced) {
  const int count = GetParam();
  const SubsetSchedule schedule{count};
  const int w = 64, h = 64;
  std::vector<int> size(static_cast<std::size_t>(count), 0);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      size[static_cast<std::size_t>(schedule.subset_of(x, y))] += 1;
  const int expected = w * h / count;
  for (const int s : size) EXPECT_NEAR(s, expected, expected / 10.0);
}

TEST_P(SubsetCoverageSweep, SubsetsSpatiallyUniform) {
  // Each subset must appear in every 8x8 neighbourhood — the unbiased-
  // center-estimate precondition.
  const int count = GetParam();
  const SubsetSchedule schedule{count};
  for (int by = 0; by < 32; by += 8) {
    for (int bx = 0; bx < 32; bx += 8) {
      std::set<int> present;
      for (int y = by; y < by + 8; ++y)
        for (int x = bx; x < bx + 8; ++x) present.insert(schedule.subset_of(x, y));
      EXPECT_EQ(static_cast<int>(present.size()), count);
    }
  }
}

TEST_P(SubsetCoverageSweep, RowStrideListsExactlyTheActivePixels) {
  const int count = GetParam();
  const int w = 37, h = 23;
  for (const SubsetPattern pattern :
       {SubsetPattern::kDithered, SubsetPattern::kRowInterleaved}) {
    const SubsetSchedule schedule(count, pattern);
    for (int y = 0; y < h; ++y) {
      for (int iter = 0; iter < 2 * count; ++iter) {
        std::vector<int> want, got;
        for (int x = 0; x < w; ++x)
          if (schedule.active(x, y, iter)) want.push_back(x);
        const SubsetSchedule::RowStride active =
            schedule.active_in_row(y, iter);
        for (int x = active.first; x < w; x += active.step) got.push_back(x);
        EXPECT_EQ(want, got) << "y=" << y << " iter=" << iter << " rows="
                             << (pattern == SubsetPattern::kRowInterleaved);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, SubsetCoverageSweep,
                         ::testing::Values(1, 2, 3, 4, 8));

// ------------------------------------------------- row-interleaved pattern

TEST(SubsetScheduleRows, WholeRowsShareSubset) {
  const SubsetSchedule schedule(4, SubsetPattern::kRowInterleaved);
  for (int y = 0; y < 16; ++y) {
    const int expected = schedule.subset_of(0, y);
    for (int x = 1; x < 24; ++x) EXPECT_EQ(schedule.subset_of(x, y), expected);
    EXPECT_EQ(expected, y % 4);
  }
  EXPECT_EQ(schedule.pattern_kind(), SubsetPattern::kRowInterleaved);
}

TEST(SubsetScheduleRows, CoverageOncePerRound) {
  const SubsetSchedule schedule(3, SubsetPattern::kRowInterleaved);
  for (int y = 0; y < 9; ++y) {
    int visits = 0;
    for (int iter = 0; iter < 3; ++iter) visits += schedule.active(5, y, iter);
    EXPECT_EQ(visits, 1);
  }
}

TEST(SubsetScheduleRows, CountOneIgnoresPattern) {
  const SubsetSchedule schedule(1, SubsetPattern::kRowInterleaved);
  EXPECT_TRUE(schedule.active(3, 7, 0));
  EXPECT_EQ(schedule.pattern_kind(), SubsetPattern::kDithered);  // kAll
}

TEST(SubsetScheduleRows, DitheredDefaultUnchanged) {
  const SubsetSchedule schedule(2);
  EXPECT_EQ(schedule.pattern_kind(), SubsetPattern::kDithered);
  EXPECT_NE(schedule.subset_of(0, 0), schedule.subset_of(1, 0));
}

// ------------------------------------------------------------ connectivity

TEST(Connectivity, AlreadyConnectedIsRelabelledOnly) {
  LabelImage labels(8, 8, 0);
  for (int y = 4; y < 8; ++y)
    for (int x = 0; x < 8; ++x) labels(x, y) = 5;
  const ConnectivityResult result = enforce_connectivity(labels, 2);
  EXPECT_EQ(result.final_label_count, 2);
  EXPECT_EQ(result.components_merged, 0);
  EXPECT_TRUE(is_fully_connected(labels));
}

TEST(Connectivity, StrayFragmentAbsorbed) {
  LabelImage labels(16, 16, 0);
  labels(10, 10) = 7;  // single stray pixel of another label
  const ConnectivityResult result = enforce_connectivity(labels, 4);
  EXPECT_EQ(result.final_label_count, 1);
  EXPECT_EQ(result.components_merged, 1);
  EXPECT_EQ(result.pixels_moved, 1u);
  EXPECT_EQ(labels(10, 10), labels(0, 0));
}

TEST(Connectivity, LargeComponentsKept) {
  LabelImage labels(16, 16, 0);
  for (int y = 0; y < 16; ++y)
    for (int x = 8; x < 16; ++x) labels(x, y) = 1;
  const ConnectivityResult result = enforce_connectivity(labels, 2);
  EXPECT_EQ(result.final_label_count, 2);
  EXPECT_EQ(result.components_merged, 0);
}

TEST(Connectivity, DisconnectedSameLabelSplitOrMerged) {
  // Two blobs share label 0 but are disconnected; afterwards labels are
  // 4-connected components.
  LabelImage labels(20, 8, 1);
  for (int y = 0; y < 8; ++y) {
    labels(0, y) = 0;
    labels(19, y) = 0;
  }
  enforce_connectivity(labels, 60);  // tiny min size: keep everything
  EXPECT_TRUE(is_fully_connected(labels));
  EXPECT_NE(labels(0, 0), labels(19, 0));
}

TEST(Connectivity, OutputLabelsCompact) {
  LabelImage labels(24, 24);
  for (int y = 0; y < 24; ++y)
    for (int x = 0; x < 24; ++x) labels(x, y) = (x / 6) * 10 + (y / 6) * 100;
  const ConnectivityResult result = enforce_connectivity(labels, 16);
  std::set<std::int32_t> seen(labels.pixels().begin(), labels.pixels().end());
  EXPECT_EQ(static_cast<int>(seen.size()), result.final_label_count);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), result.final_label_count - 1);
}

TEST(IsFullyConnected, DetectsSplitComponents) {
  LabelImage labels(6, 1, 0);
  labels(2, 0) = 1;  // 0 0 1 0 0 0 -> label 0 split in two
  EXPECT_FALSE(is_fully_connected(labels));
}

TEST(IsFullyConnected, AcceptsSingleLabel) {
  const LabelImage labels(5, 5, 3);
  EXPECT_TRUE(is_fully_connected(labels));
}

}  // namespace
}  // namespace sslic
