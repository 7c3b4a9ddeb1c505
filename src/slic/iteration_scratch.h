// Reusable per-run working state of the SLIC segmenters.
//
// Every buffer a segmentation run needs — the min-distance plane, the
// seeding gradient, per-band sigma pools, subset masks, connectivity run
// records — lives here instead of on the stack of segment_lab(), so a
// caller that keeps one IterationScratch across frames (TemporalSlic, the
// video pipeline, the fused-iteration bench) pays the allocations once and
// runs every later frame of the same geometry with zero heap allocations
// (tests/test_fused.cpp asserts this with a counting operator new).
//
// All sizing is idempotent: buffers are grown on first use per geometry and
// merely re-filled afterwards (std::vector::assign and Image::fill do not
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

/// Integer tallies of one PPA assignment stripe, summed in ascending stripe
/// order on the calling thread after the pool join.
struct StripeTally {
  std::uint64_t pixels_visited = 0;
  std::uint64_t tiles_skipped = 0;   ///< preemptive: all 9 candidates frozen
  std::uint64_t tiles_assigned = 0;  ///< tiles that fetched their candidates
};

/// Working buffers of one segmentation run; see the header comment.
struct IterationScratch {
  // --- Shared by CPA and PPA ---
  std::vector<double> min_dist;  ///< running minimum-distance plane
  std::vector<Sigma> sigmas;     ///< merged sigma registers (K entries)
  Image<float> gradient;         ///< center-perturbation pass (seed_centers)
  ConnectivityScratch connectivity;

  // --- CPA (slic_baseline.cpp) ---
  std::vector<std::uint8_t> active;  ///< per-center subset activity flags
  std::vector<ScanWindow> windows;   ///< clamped scan windows, K entries
  /// Fused iteration: one sigma pool per row band, merged in ascending
  /// band order after the band sweep (same reduction tree as the two-pass
  /// parallel_reduce, so centers match it bit for bit).
  std::vector<std::vector<Sigma>> band_sigmas;

  // --- PPA (subsampled.cpp) ---
  /// Quantized Lab planes the row kernels read in place of the input
  /// (data widths below float only; a float run reads the input itself).
  LabImage stored;
  /// Subset-mask rows: one image-wide slice per assignment stripe, so
  /// stripes running on different threads never share a mask.
  std::vector<std::uint8_t> row_active;
  std::vector<std::uint8_t> frozen;      ///< preemptive: converged centers
  std::vector<std::uint8_t> calm_streak;
  std::vector<std::uint8_t> tile_skipped;
  std::vector<StripeTally> stripe_tallies;       ///< one per stripe
  std::vector<std::uint64_t> band_accumulated;   ///< pixels per sigma band
  /// Static 9-candidate map, cached per (width, height, K) geometry.
  std::vector<CandidateList> candidates;
  int candidates_width = 0;
  int candidates_height = 0;
  int candidates_k = 0;

  /// Sizes the per-band sigma pools (fused CPA path). The pools are
  /// re-zeroed by the band bodies each iteration; this only shapes them.
  void ensure_band_sigmas(std::size_t bands, std::size_t num_centers) {
    if (band_sigmas.size() != bands) band_sigmas.resize(bands);
    for (auto& pool : band_sigmas)
      if (pool.size() != num_centers) pool.resize(num_centers);
  }

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
