// Reusable per-run working state of the SLIC iteration core
// (slic/iteration.h).
//
// Every buffer a segmentation run needs — region edges, CPA center buckets
// and band partials, the subsampled-CPA min-distance plane, PPA subset
// masks, connectivity run records — lives here instead of on the stack of
// segment_lab(), so a caller that keeps one IterationScratch across frames
// (TemporalSlic, the engine's streams, video_pipeline) pays the
// allocations once and runs every later frame of the same geometry with
// zero heap allocations (tests/test_fused.cpp asserts this for PPA with a
// counting operator new). CPA's buckets and band partials are sized by
// where the centers are, so they settle at their high-water mark instead.
//
// All sizing is idempotent: buffers are grown on first use per geometry and
// merely re-filled afterwards (std::vector::assign and resize do not
// reallocate at an unchanged size). The scratch carries no results — the
// labels/centers live in the caller's Segmentation — and one scratch can be
// shared between CPA and PPA runs (unused fields stay empty).
#pragma once

#include <cstdint>
#include <vector>

#include "image/image.h"
#include "slic/center_update.h"
#include "slic/connectivity.h"
#include "slic/grid.h"

namespace sslic {

/// Clamped 2Sx2S scan rectangle of one center (CPA assignment).
struct ScanWindow {
  int x0 = 0;
  int x1 = -1;
  int y0 = 0;
  int y1 = -1;

  [[nodiscard]] std::uint64_t pixels() const {
    return static_cast<std::uint64_t>(x1 - x0 + 1) *
           static_cast<std::uint64_t>(y1 - y0 + 1);
  }
};

/// Working buffers of one segmentation run; see the header comment.
struct IterationScratch {
  // --- Shared by CPA and PPA ---
  std::vector<Sigma> sigmas;  ///< merged sigma registers (K entries)
  /// Region grid edges: region (c, r) spans columns
  /// [region_x[c], region_x[c+1]) and rows [region_y[r], region_y[r+1]).
  std::vector<int> region_x;
  std::vector<int> region_y;
  ConnectivityScratch connectivity;

  // --- CPA ---
  std::vector<double> min_dist;      ///< subsampled CPA's persistent plane
  std::vector<std::uint8_t> active;  ///< per-center subset activity flags
  std::vector<ScanWindow> windows;   ///< clamped scan windows, K entries
  /// Active centers per region, ascending (CSR: region r's centers are
  /// bucket_centers[bucket_offsets[r] .. bucket_offsets[r+1])).
  std::vector<std::size_t> bucket_offsets;
  std::vector<std::int32_t> bucket_centers;
  /// Full SLIC's running minima: one region-sized slice per pool slot.
  std::vector<double> region_min_dist;
  /// Reduction band edges (kReduceChunks bands, fixed by the height).
  std::vector<int> band_y;
  /// Per band: the center-index range [band_lo, band_hi] its labels can
  /// hold, and where its sigma partial over that range starts in
  /// band_partials (offset >= band_lo, so the partial rebased by -band_lo
  /// stays inside the buffer).
  std::vector<std::int32_t> band_lo;
  std::vector<std::int32_t> band_hi;
  std::vector<std::size_t> band_offset;
  std::vector<Sigma> band_partials;

  // --- PPA ---
  /// Quantized Lab planes the row kernels read in place of the input
  /// (data widths below float only; a float run reads the input itself).
  LabImage stored;
  /// Subset-mask rows: one image-wide slice per region row, so regions
  /// running on different threads never share a mask.
  std::vector<std::uint8_t> row_active;
  std::vector<std::uint8_t> frozen;  ///< preemptive: converged centers
  std::vector<std::uint8_t> calm_streak;
  std::vector<std::uint8_t> tile_skipped;
  std::vector<std::uint64_t> region_visited;    ///< pixels per region
  std::vector<std::uint64_t> band_accumulated;  ///< pixels per sigma band
  /// Static 9-candidate map, cached per (width, height, K) geometry.
  std::vector<CandidateList> candidates;
  int candidates_width = 0;
  int candidates_height = 0;
  int candidates_k = 0;

  /// Rebuilds the candidate map only when the grid geometry changed.
  const std::vector<CandidateList>& candidate_map(const CenterGrid& grid) {
    if (candidates_width != grid.width() ||
        candidates_height != grid.height() ||
        candidates_k != grid.num_centers()) {
      candidates = build_candidate_map(grid);
      candidates_width = grid.width();
      candidates_height = grid.height();
      candidates_k = grid.num_centers();
    }
    return candidates;
  }
};

}  // namespace sslic
