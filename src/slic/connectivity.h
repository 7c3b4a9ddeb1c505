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
// enforce_connectivity is the one implementation. It runs a union-find
// over row runs (maximal same-label segments of one row): the per-pixel
// phases run on the thread pool in row bands, and the absorption rule is
// replayed serially over the region roots only. Resident images give it
// heap records; the out-of-core tiled driver gives it records laid over
// its spill file's dead Lab planes and a hook that releases pages behind
// every cursor. The tests keep a scan-order flood fill as its oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "image/image.h"

namespace sslic {

struct ConnectivityResult {
  int final_label_count = 0;    ///< labels after relabelling (0..count-1)
  int components_merged = 0;    ///< stray fragments absorbed
  std::size_t pixels_moved = 0; ///< pixels whose label changed by merging
};

/// Reusable working buffers of enforce_connectivity. A caller that keeps
/// one of these across frames (e.g. TemporalSlic's IterationScratch) makes
/// the pass allocation-free at steady state: `runs` is allocated for the
/// worst case, one run per pixel, on the first call per image size, left
/// uninitialized, and only the records a frame writes become resident.
struct ConnectivityScratch {
  /// One row run, 12 bytes. Its label is read back from the label plane
  /// and its end is the next run's start (or the row end).
  struct Run {
    std::int32_t x;       ///< first column
    std::int32_t parent;  ///< union-find parent, always a smaller index
    /// Run length, then the region's size (roots), then its final label.
    std::int32_t value;
  };
  std::unique_ptr<Run[]> runs;          ///< raster order
  std::size_t run_capacity = 0;         ///< records `runs` has room for
  std::vector<std::int32_t> row_begin;  ///< h + 1 entries: first run per row
};

/// The buffers of one connectivity pass, in the PlaneView idiom of
/// slic/iteration.h: a row-major label plane, relabelled in place; a
/// run-record buffer; and a release hook.
struct ConnectivityPlanes {
  std::int32_t* labels = nullptr;  ///< width x height, addressed y * width + x
  int width = 0;
  int height = 0;
  /// Room for one record per pixel, the worst case. Records are written in
  /// raster order, so only the first runs-many are ever touched.
  ConnectivityScratch::Run* runs = nullptr;
  std::int32_t* row_begin = nullptr;  ///< height + 1 entries of workspace
  /// Drops the resident pages of bytes [begin, end), label rows and run
  /// records, behind every cursor; they refault intact if read again. Null
  /// for resident images; the tiled driver passes PlanarStore page release.
  void (*release)(void* context, const void* begin, const void* end) = nullptr;
  void* release_context = nullptr;
  /// Rows of records each cursor keeps behind it: root lookups revisit
  /// them, so a window-sized look-back limits refaults. No byte depends on it.
  int look_back = 0;
};

/// Enforces 4-connectivity in place over `planes` with the run union-find.
/// `expected_superpixels` sets the minimum-fragment threshold to
/// (N / expected_superpixels) / 4, matching the reference SLIC
/// implementation. Output labels are compact (0..n-1) and the same bytes at
/// every thread count. Pixel offsets are 64-bit; runs are counted in 64
/// bits but indexed with int32, so a raster with 2^31 runs or more is
/// rejected.
ConnectivityResult enforce_connectivity(const ConnectivityPlanes& planes,
                                        int expected_superpixels);

/// The same pass over a resident image. Rasters of 2^31 pixels or more go
/// through TiledSegmenter. `scratch` is optional; passing one amortizes all
/// working allocations across calls.
ConnectivityResult enforce_connectivity(LabelImage& labels,
                                        int expected_superpixels,
                                        ConnectivityScratch* scratch = nullptr);

/// True when every label forms a single 4-connected component.
bool is_fully_connected(const LabelImage& labels);

}  // namespace sslic
