// Connectivity enforcement (paper Section 2): after convergence "a final
// step is performed to enforce the connectivity, ensuring that any stray
// pixels that may still be disjoint are assigned to the closest large SP".
//
// This is Achanta et al.'s post-pass. Three facts describe its output
// completely:
//   1. Its components are exactly the 4-connected same-label regions of the
//      input labels.
//   2. Surviving regions are numbered 0, 1, 2, ... in the raster order of
//      their first pixel.
//   3. A region smaller than min_size = max(1, N / K / 4) pixels is absorbed,
//      unless it is the first region. It takes the final label of one
//      4-neighbour of its first pixel: the last of left, right, up and down
//      whose region starts earlier in raster order. Up and left always start
//      earlier, so that is down if it starts earlier, else up; in row 0,
//      right if it starts earlier, else left.
//
// Two implementations produce these bytes. enforce_connectivity runs a
// union-find over row runs (maximal same-label segments of one row): the
// per-pixel phases run on the thread pool in row bands, and the absorption
// rule is replayed serially over the region roots only. The scan-order flood
// fill enforce_connectivity_span is the out-of-core tiled driver's pass,
// which streams rows and needs no O(runs) memory, and the tests' oracle for
// the run pass.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "image/image.h"

namespace sslic {

struct ConnectivityResult {
  int final_label_count = 0;    ///< labels after relabelling (0..count-1)
  int components_merged = 0;    ///< stray fragments absorbed
  std::size_t pixels_moved = 0; ///< pixels whose label changed by merging
};

/// Working buffers of the span-core relabelling pass. Flat indices are
/// 64-bit so the pass addresses rasters beyond 2^31 pixels (the out-of-core
/// tiled driver runs it over gigapixel label planes). The vectors grow on
/// demand; `members` records at most min_size entries per component (once a
/// component is provably large it can never be absorbed, so its remaining
/// members need no tracking) — which keeps the worst case proportional to
/// the fragment threshold, not the image.
struct ConnectivitySpanScratch {
  std::vector<std::int64_t> stack;    ///< flood-fill worklist (flat indices)
  std::vector<std::int64_t> members;  ///< current component's flat indices
};

/// Reusable working buffers of enforce_connectivity. A caller that keeps
/// one of these across frames (e.g. TemporalSlic's IterationScratch) makes
/// the pass allocation-free at steady state: `runs` is reserved for the
/// worst case, one run per pixel, on the first call per image size, and
/// only the records a frame writes become resident.
struct ConnectivityScratch {
  /// One row run, 12 bytes. Its label is read back from the label plane
  /// and its end is the next run's start (or the row end).
  struct Run {
    std::int32_t x;       ///< first column
    std::int32_t parent;  ///< union-find parent, always a smaller index
    /// Run length, then the region's size (roots), then its final label.
    std::int32_t value;
  };
  std::vector<Run> runs;                ///< raster order
  std::vector<std::int32_t> row_begin;  ///< h + 1 entries: first run per row
};

/// Span core of the connectivity pass: relabels `labels` (w x h, row-major)
/// into `out` by the scan-order flood fill, over raw planes so callers can
/// run it on memory-mapped label rasters without materializing a
/// LabelImage. `out` must not alias `labels`; it is fully overwritten.
/// `on_row_done` (optional) fires after each completed scan row — the
/// out-of-core driver uses it to drop resident pages behind the scan
/// cursor. `out_prefilled` skips the initial fill of `out` with -1; the
/// caller must have done it (the out-of-core driver prefills in released
/// row chunks so the whole plane never sits dirty-resident at once).
ConnectivityResult enforce_connectivity_span(
    const std::int32_t* labels, std::int32_t* out, int w, int h,
    int expected_superpixels, ConnectivitySpanScratch& scratch,
    const std::function<void(int y)>& on_row_done = {},
    bool out_prefilled = false);

/// Enforces 4-connectivity in place with the run union-find pass.
/// `expected_superpixels` sets the minimum-fragment threshold to
/// (N / expected_superpixels) / 4, matching the reference SLIC
/// implementation. Output labels are compact (0..n-1) and byte-identical to
/// enforce_connectivity_span's at every thread count. Run indices are 32-bit,
/// so rasters of 2^31 pixels or more go through TiledSegmenter. `scratch` is
/// optional; passing one amortizes all working allocations across calls.
ConnectivityResult enforce_connectivity(LabelImage& labels,
                                        int expected_superpixels,
                                        ConnectivityScratch* scratch = nullptr);

/// True when every label forms a single 4-connected component.
bool is_fully_connected(const LabelImage& labels);

}  // namespace sslic
