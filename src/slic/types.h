// Shared types of the SLIC algorithm family (paper Sections 2-3).
#pragma once

#include <functional>
#include <vector>

#include "image/image.h"
#include "slic/subset_schedule.h"

namespace sslic {

/// A 5-D superpixel cluster center [L, a, b, x, y] (paper Section 2).
struct ClusterCenter {
  double L = 0.0;
  double a = 0.0;
  double b = 0.0;
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const ClusterCenter&, const ClusterCenter&) = default;
};

/// Which elements are subsampled between iterations (paper Section 3).
enum class Perspective {
  kPixel,   // PPA: round-robin subsets of *pixels* update all centers
  kCenter,  // CPA: round-robin subsets of *centers* are updated
};

/// Algorithm parameters shared by every segmenter in the family.
struct SlicParams {
  /// Requested number of superpixels K. The grid initializer may place a
  /// slightly different count (nx*ny) to tile the image evenly.
  int num_superpixels = 900;

  /// Compactness weight m of Eq. 5 (1..40 typical; 10 default).
  double compactness = 10.0;

  /// Maximum number of iterations. For subsampled variants this counts
  /// subset iterations (each touching ratio*N pixels), so `1/ratio`
  /// iterations perform one full-image sweep.
  int max_iterations = 10;

  /// Mean per-center movement (pixels, L1 over x/y) below which iteration
  /// stops. <= 0 disables the convergence test (fixed iteration count, as
  /// the accelerator FSM does).
  double convergence_threshold = 0.0;

  /// Fraction of elements (pixels for PPA, centers for CPA) processed per
  /// iteration: 1.0 = original SLIC, 0.5 = S-SLIC(0.5), 0.25 = S-SLIC(0.25).
  double subsample_ratio = 1.0;

  /// How the pixel subsets are shaped (PPA only): dithered (statistically
  /// uniform, the default) or row-interleaved (DRAM-burst friendly — the
  /// pattern the accelerator's bandwidth saving relies on).
  SubsetPattern subset_pattern = SubsetPattern::kDithered;

  /// Move each initial center to the 3x3-neighbourhood gradient minimum
  /// (paper Section 2). The accelerator omits this (static tiling).
  bool perturb_centers = true;

  /// Run the connectivity-enforcement post-pass (paper Section 2).
  bool enforce_connectivity = true;

  /// Preemptive-SLIC-style extension (paper Section 8): freeze centers
  /// whose movement stayed below `freeze_threshold` for two consecutive
  /// updates and skip tiles whose candidate centers are all frozen.
  bool preemptive = false;
  double freeze_threshold = 0.1;
};

/// Per-iteration trace entry (drives the Fig. 2 quality-vs-time curves and
/// the convergence tests).
struct IterationStats {
  int iteration = 0;
  double center_movement = 0.0;   ///< mean L1 (x,y) movement of updated centers
  std::size_t pixels_visited = 0; ///< pixels whose assignment was recomputed
  double elapsed_ms = 0.0;        ///< this iteration's assign + update stage time
};

/// Segmentation result.
struct Segmentation {
  LabelImage labels;
  std::vector<ClusterCenter> centers;
  int iterations_run = 0;
  std::vector<IterationStats> trace;
};

/// Observer invoked after each iteration with the in-progress labelling.
/// Time spent inside the callback is excluded from the recorded iteration
/// times. `labels` is valid only for the duration of the call.
using IterationCallback =
    std::function<void(const IterationStats& stats, const LabelImage& labels,
                       const std::vector<ClusterCenter>& centers)>;

}  // namespace sslic
