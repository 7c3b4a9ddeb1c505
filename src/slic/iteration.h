// The one SLIC iteration core (DESIGN.md §4h): CpaSlic, PpaSlic and the
// out-of-core TiledSegmenter all run the loops defined here, over two
// inputs.
//
//   * A PlaneView: row-major Lab, label and (subsampled CPA only)
//     min-distance planes, plus a row-release hook. The hook is null for
//     resident images; the tiled driver passes PlanarStore page release, so
//     every pass drops the rows it has finished with.
//   * A RegionGrid: the rectangles the assignment phase sweeps, one pool
//     chunk each. The resident default is CPA's kReduceChunks reduction
//     bands or PPA's tile stripes; the tiled driver passes its tile grid.
//
// Labels do not depend on the regions: each pixel takes the strict-<
// minimum over exactly the centers whose clamped windows (CPA) or
// 9-candidate lists (PPA) cover it, visited in ascending index order, and
// every region drains its covering centers in that order. Sigma sums do
// not depend on them either: the accumulation ignores the regions. CPA
// folds one partial per fixed row band (kReduceChunks bands, ascending
// order); PPA bands own center rows and add their pixels in row-major
// order. So any region grid, thread count and release hook gives the same
// bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/trace.h"
#include "image/image.h"
#include "slic/distance.h"
#include "slic/instrumentation.h"
#include "slic/iteration_scratch.h"
#include "slic/types.h"

namespace sslic {

/// Rows per page-release batch of the streaming passes. Small enough to
/// bound RSS at gigapixel widths, large enough that the madvise syscall
/// amortizes over tens of thousands of row-pixels.
inline constexpr int kReleaseStride = 128;

/// The working planes of one run: full-width row-major rasters addressed
/// as `base + y * width + x`.
struct PlaneView {
  int width = 0;
  int height = 0;
  const float* L = nullptr;
  const float* a = nullptr;
  const float* b = nullptr;
  std::int32_t* labels = nullptr;
  /// Subsampled CPA's running-minimum plane, kept across iterations. Null
  /// otherwise: full SLIC keeps its minima in region-local scratch, and
  /// PPA takes a fresh best of 9 per pixel.
  double* min_dist = nullptr;
  /// Drops the resident pages of rows [y0, y1) of every plane once a pass
  /// is done with them; the data refaults intact if a row is read again.
  /// Null for resident images.
  void (*release)(void* context, int y0, int y1) = nullptr;
  void* release_context = nullptr;

  /// A resident view of `lab` (and `labels` when given).
  static PlaneView of(const LabImage& lab, std::int32_t* labels = nullptr,
                      double* min_dist = nullptr);

  [[nodiscard]] std::size_t offset(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(width) +
           static_cast<std::size_t>(x);
  }
  [[nodiscard]] LabF lab(std::size_t f) const { return {L[f], a[f], b[f]}; }
  void release_rows(int y0, int y1) const {
    if (release != nullptr && y0 < y1) release(release_context, y0, y1);
  }
  /// A streaming pass's cursor: once rows [released, y) span
  /// kReleaseStride rows, releases them and advances `released` to y.
  void release_behind(int& released, int y) const {
    if (release != nullptr && y - released >= kReleaseStride) {
      release(release_context, released, y);
      released = y;
    }
  }
};

/// The rectangles of the assignment phase.
struct RegionGrid {
  /// Tiles of tile_width x tile_height pixels, the last row and column
  /// keeping the remainder; 0 selects the resident default (CPA's
  /// reduction bands, PPA's tile stripes).
  int tile_width = 0;
  int tile_height = 0;
  /// When set, each iteration adds the halo exchange here and to the
  /// traffic model: the center state re-fetched by every region beyond the
  /// first that a window (CPA) or a tile's candidate list (PPA) spans.
  std::uint64_t* halo_bytes = nullptr;
};

/// Every pixel starts labelled with the center of its own grid cell (the
/// accelerator initializes assignments before iterating). Releases rows
/// through the view's hook as it goes.
void fill_initial_labels(const CenterGrid& grid, const PlaneView& planes);

/// Runs a CPA segmentation (baseline SLIC at subsample_ratio 1, S-SLIC CPA
/// below) up to connectivity: seeding, the initial labels, the subsampled
/// min-distance seed, then the iterations. `init_stage` is the stage clock
/// the caller started; its span "cpa.init" ends once the buffers are set
/// up. `fused` selects the single band sweep (assignment and accumulation
/// per band); it needs the resident bands as regions.
void run_cpa(const PlaneView& planes, const RegionGrid& regions,
             const SlicParams& params, bool fused,
             trace::Interval& init_stage, Segmentation& result,
             IterationScratch& scratch, Instrumentation& instr,
             const IterationCallback& callback = {});

/// Runs a PPA segmentation up to connectivity: seeding (or the warm start
/// from `warm_centers`, clamped into the image), the initial labels, then
/// the iterations. Centers are stored at `dist`'s data width; the planes
/// must already be. `init_stage` as for run_cpa ("ppa.init").
void run_ppa(const PlaneView& planes, const RegionGrid& regions,
             const SlicParams& params, const DistanceCalculator& dist,
             const std::vector<ClusterCenter>* warm_centers,
             trace::Interval& init_stage, Segmentation& result,
             IterationScratch& scratch, Instrumentation& instr,
             const IterationCallback& callback = {});

}  // namespace sslic
