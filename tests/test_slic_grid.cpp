// Tests for SLIC infrastructure: center grid, static 9-candidate tiling,
// subset schedules, and connectivity enforcement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "color/color_convert.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "dataset/synthetic.h"
#include "image/gradient.h"
#include "slic/connectivity.h"
#include "slic/grid.h"
#include "slic/slic_baseline.h"
#include "slic/subsampled.h"
#include "slic/subset_schedule.h"
#include "slic/temporal.h"

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
    for (int x = cx; x < 30; ++x) lab.set(x, y, {90.0f, 0.0f, 0.0f});
  const auto centers = seed_centers(grid, lab, /*perturb=*/true);
  // Gradient is zero two columns away from the edge but large at cx-1..cx.
  EXPECT_NE(static_cast<int>(centers[0].x), cx);
  EXPECT_NE(static_cast<int>(centers[0].x), cx - 1);
}

// The probe seeding evaluates the gradient only at the 3x3 pixels it
// compares; it must pick exactly the centers the full-plane reference
// (lab_gradient_magnitude + argmin_gradient_3x3) picks, down to the byte,
// including degenerate 2-pixel edges and tie-breaks on flat content.
TEST(SeedCenters, ProbeMatchesFullPlaneOracle) {
  const auto oracle = [](const CenterGrid& grid, const LabImage& lab) {
    const Image<float> gradient = lab_gradient_magnitude(lab);
    std::vector<ClusterCenter> centers(
        static_cast<std::size_t>(grid.num_centers()));
    for (int gy = 0; gy < grid.ny(); ++gy) {
      for (int gx = 0; gx < grid.nx(); ++gx) {
        const int px = std::clamp(static_cast<int>(grid.center_pos_x(gx)), 0,
                                  grid.width() - 1);
        const int py = std::clamp(static_cast<int>(grid.center_pos_y(gy)), 0,
                                  grid.height() - 1);
        const Point p = argmin_gradient_3x3(gradient, px, py);
        const LabF color = lab(p.x, p.y);
        centers[static_cast<std::size_t>(grid.center_index(gx, gy))] = {
            static_cast<double>(color.L), static_cast<double>(color.a),
            static_cast<double>(color.b), static_cast<double>(p.x),
            static_cast<double>(p.y)};
      }
    }
    return centers;
  };
  Rng rng(0x5eed);
  const auto random_lab = [&](int w, int h, bool coarse) {
    LabImage lab(w, h);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        // Coarse content makes many gradients tie exactly.
        const auto value = [&](double lo, double hi) {
          return coarse ? static_cast<float>(rng.next_int(0, 3))
                        : static_cast<float>(rng.next_double(lo, hi));
        };
        lab.set(x, y, {value(0.0, 100.0), value(-80.0, 80.0),
                       value(-80.0, 80.0)});
      }
    }
    return lab;
  };
  struct Case {
    int w, h;
  };
  for (const Case c : {Case{2, 2}, Case{2, 9}, Case{9, 2}, Case{3, 3},
                       Case{4, 4}, Case{160, 120}}) {
    std::vector<LabImage> images{random_lab(c.w, c.h, false),
                                 random_lab(c.w, c.h, true)};
    if (c.w == 160)
      images.push_back(srgb_to_lab(generate_synthetic({160, 120}, 83).image));
    for (const LabImage& lab : images) {
      for (const int k : {1, 2, 4, 7, 80, 300}) {
        const CenterGrid grid(c.w, c.h, k);
        const std::vector<ClusterCenter> want = oracle(grid, lab);
        const std::vector<ClusterCenter> got =
            seed_centers(grid, lab, /*perturb=*/true);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                 want.size() * sizeof(ClusterCenter)))
            << c.w << "x" << c.h << " K=" << k;
      }
    }
  }
}

TEST(SeedCenters, PerturbationBoundedTo3x3) {
  LabImage lab(60, 60);
  for (int y = 0; y < 60; ++y)
    for (int x = 0; x < 60; ++x)
      lab.set(x, y, {static_cast<float>((x * 7 + y * 13) % 50), 0.0f, 0.0f});
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

// The run union-find pass against the flood-fill oracle. Inputs are raw
// (unconnected) segmenter labels at the geometries the frame paths run,
// plus label maps built to stress one part of the pass each.

struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { ThreadPool::set_global_threads(0); }
};

struct ConnectivityCase {
  std::string name;
  LabelImage raw;
  int superpixels = 1;
  int want_final_labels = -1;  ///< checked against the oracle when >= 0
};

SlicParams raw_params(int superpixels, int iterations, double ratio) {
  SlicParams params;
  params.num_superpixels = superpixels;
  params.max_iterations = iterations;
  params.subsample_ratio = ratio;
  params.enforce_connectivity = false;
  return params;
}

// Raw labels of the second, warm-started frame of an S-SLIC(0.5) stream.
LabelImage warm_ppa_labels(int w, int h, int superpixels) {
  TemporalSlic stream(raw_params(superpixels, 10, 0.5));
  (void)stream.next_frame(generate_synthetic({w, h}, 11).image);
  return stream.next_frame(generate_synthetic({w, h}, 12).image).labels;
}

LabelImage cpa_labels(int w, int h, int superpixels, int iterations) {
  return CpaSlic(raw_params(superpixels, iterations, 1.0))
      .segment(generate_synthetic({w, h}, 21).image)
      .labels;
}

LabelImage ppa_labels(int w, int h, int superpixels) {
  return PpaSlic(raw_params(superpixels, 6, 0.5))
      .segment(generate_synthetic({w, h}, 31).image)
      .labels;
}

// Every pixel is its own region; with a min_size above 1 all but the first
// are absorbed.
LabelImage checkerboard(int w, int h) {
  LabelImage labels(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) labels(x, y) = (x + y) % 2;
  return labels;
}

// A one-pixel square spiral of label 1 in a spiral of label 0: two regions
// whose runs join through long union chains.
LabelImage square_spiral(int size) {
  LabelImage labels(size, size, 0);
  const auto painted = [&](int x, int y) {
    return x >= 0 && x < size && y >= 0 && y < size && labels(x, y) == 1;
  };
  const int dx[4] = {1, 0, -1, 0};
  const int dy[4] = {0, 1, 0, -1};
  int x = 0;
  int y = 0;
  int dir = 0;
  labels(x, y) = 1;
  for (int turns = 0; turns < 2;) {
    const int nx = x + dx[dir];
    const int ny = y + dy[dir];
    const bool inside = nx >= 0 && nx < size && ny >= 0 && ny < size;
    if (inside && !painted(nx, ny) && !painted(nx + dx[dir], ny + dy[dir])) {
      x = nx;
      y = ny;
      labels(x, y) = 1;
      turns = 0;
    } else {
      dir = (dir + 1) % 4;
      ++turns;
    }
  }
  return labels;
}

// One-column teeth of label 0 between gaps of label 1 that join only
// through the last row, so the gap region's runs union at the very end.
LabelImage comb(int w, int h) {
  LabelImage labels(w, h, 1);
  for (int y = 0; y + 1 < h; ++y)
    for (int x = 0; x < w; x += 2) labels(x, y) = 0;
  return labels;
}

// Row 0 reads R L L B R, and R wraps round L and B through the last row.
// B's right neighbour starts before B and its left does not, so the flood
// fill absorbs B into R, not L.
LabelImage wrapped_row0(int h) {
  LabelImage labels(5, h, 0);
  for (int y = 0; y + 1 < h; ++y) {
    labels(1, y) = 1;
    labels(2, y) = 1;
    labels(3, y) = y < 2 ? 2 : 3;
  }
  return labels;
}

// Three labels of uniform noise: many small regions of every shape.
LabelImage noise(int w, int h, std::uint32_t seed) {
  LabelImage labels(w, h);
  std::uint32_t state = seed;
  for (std::int32_t& label : labels.pixels()) {
    state = state * 1664525u + 1013904223u;
    label = static_cast<std::int32_t>((state >> 16) % 3);
  }
  return labels;
}

TEST(Connectivity, MatchesFloodFillOracleAcrossThreads) {
  GlobalThreadsGuard threads_guard;
  std::vector<ConnectivityCase> cases;
  cases.push_back(
      {"warm PPA 960x540 K=900", warm_ppa_labels(960, 540, 900), 900});
  cases.push_back(
      {"warm PPA 640x360 K=400", warm_ppa_labels(640, 360, 400), 400});
  cases.push_back(
      {"CPA 1920x1080 K=5000", cpa_labels(1920, 1080, 5000, 2), 5000});
  cases.push_back({"CPA 481x321 K=300", cpa_labels(481, 321, 300, 10), 300});
  cases.push_back({"PPA 37x611 K=60", ppa_labels(37, 611, 60), 60});
  cases.push_back({"PPA 64x64 K=1", ppa_labels(64, 64, 1), 1});
  cases.push_back({"PPA 200x150 K=3000", ppa_labels(200, 150, 3000), 3000});
  cases.push_back({"checkerboard 97x61", checkerboard(97, 61), 100, 1});
  cases.push_back({"one region 128x77", LabelImage(128, 77, 7), 50, 1});
  cases.push_back({"square spiral 101x101", square_spiral(101), 4, 2});
  cases.push_back({"comb 200x40, teeth absorbed", comb(200, 40), 10, 2});
  cases.push_back({"comb 200x40, teeth kept", comb(200, 40), 1000, 101});
  cases.push_back({"row 0 wraps round 5x8", wrapped_row0(8), 1, 2});
  cases.push_back({"noise 123x45", noise(123, 45, 5), 40});
  cases.push_back({"single row 257x1", noise(257, 1, 6), 20});
  cases.push_back({"single column 1x193", noise(1, 193, 7), 20});

  // One scratch for every case and thread count, so the pass also runs on
  // records left behind by larger and smaller rasters.
  ConnectivityScratch scratch;
  for (const ConnectivityCase& c : cases) {
    const int w = c.raw.width();
    const int h = c.raw.height();
    LabelImage want(w, h);
    ConnectivitySpanScratch span;
    const ConnectivityResult oracle = enforce_connectivity_span(
        c.raw.pixels().data(), want.pixels().data(), w, h, c.superpixels, span);
    if (c.want_final_labels >= 0) {
      EXPECT_EQ(oracle.final_label_count, c.want_final_labels) << c.name;
    }
    for (const int threads : {1, 3, 8}) {
      ThreadPool::set_global_threads(threads);
      LabelImage got = c.raw;
      // The 3-thread run takes the no-scratch path.
      const ConnectivityResult result = enforce_connectivity(
          got, c.superpixels, threads == 3 ? nullptr : &scratch);
      const std::string where =
          c.name + ", " + std::to_string(threads) + " threads";
      EXPECT_TRUE(got.pixels() == want.pixels()) << where;
      EXPECT_EQ(result.final_label_count, oracle.final_label_count) << where;
      EXPECT_EQ(result.components_merged, oracle.components_merged) << where;
      EXPECT_EQ(result.pixels_moved, oracle.pixels_moved) << where;
    }
  }
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
