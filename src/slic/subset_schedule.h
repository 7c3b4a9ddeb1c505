// Round-robin subset schedules for S-SLIC (paper Section 3).
//
// "The image pixels are split into subsets of equal size. At each
//  iteration, a different subset is used to update the SPs. The subsets
//  are traversed in a round-robin fashion to guarantee that all image
//  pixels are considered."
//
// Subsets must be spatially uniform — every superpixel must see a
// representative sample of its pixels each iteration or its center estimate
// becomes biased (the OS-EM/stochastic-gradient convergence argument the
// paper invokes). We therefore use dithered spatial patterns, not scanline
// blocks: 2 subsets form a checkerboard, 4 subsets a 2x2 Bayer block, and
// other counts fall back to diagonal striping.
#pragma once

#include <limits>

#include "common/check.h"

namespace sslic {

/// How the pixel lattice is carved into subsets.
enum class SubsetPattern {
  /// Maximally dispersed dither (checkerboard / Bayer / diagonal): the
  /// statistically best-behaved choice — every superpixel sees a uniform
  /// sample each iteration (default).
  kDithered,
  /// Whole rows round-robin (rows where y % count == iteration % count).
  /// Hardware-friendly: inactive rows are whole DRAM bursts that can be
  /// skipped, which is how the accelerator banks its bandwidth saving.
  /// Slightly less uniform vertically.
  kRowInterleaved,
};

/// Spatially-uniform partition of the pixel lattice into `count` subsets.
class SubsetSchedule {
 public:
  explicit SubsetSchedule(int count,
                          SubsetPattern pattern = SubsetPattern::kDithered);

  /// Builds the schedule corresponding to a subsampling ratio: ratio 1.0 ->
  /// 1 subset (plain SLIC), 0.5 -> 2, 0.25 -> 4. The ratio must be 1/n for
  /// an integer n in [1, 64].
  static SubsetSchedule from_ratio(double ratio,
                                   SubsetPattern pattern = SubsetPattern::kDithered);

  [[nodiscard]] int count() const { return count_; }
  [[nodiscard]] SubsetPattern pattern_kind() const {
    return pattern_ == Pattern::kRows ? SubsetPattern::kRowInterleaved
                                      : SubsetPattern::kDithered;
  }

  /// Subset index of pixel (x, y), in [0, count).
  [[nodiscard]] int subset_of(int x, int y) const {
    switch (pattern_) {
      case Pattern::kAll:
        return 0;
      case Pattern::kCheckerboard:
        return (x + y) & 1;
      case Pattern::kBayer2x2:
        return (x & 1) | ((y & 1) << 1);
      case Pattern::kDiagonal:
        return (x + 2 * y) % count_;
      case Pattern::kRows:
        return y % count_;
    }
    return 0;
  }

  /// True when pixel (x, y) is active in iteration `iteration` (subsets are
  /// visited round-robin).
  [[nodiscard]] bool active(int x, int y, int iteration) const {
    return subset_of(x, y) == iteration % count_;
  }

  /// The active pixels of row `y` at `iteration` are x = first, first +
  /// step, first + 2*step, ... below the image width; `first` is
  /// kNoActivePixel when the row has none. Every pattern makes them an
  /// arithmetic progression, so loops can stride instead of testing
  /// active() per pixel.
  struct RowStride {
    int first = 0;
    int step = 1;
  };
  static constexpr int kNoActivePixel = std::numeric_limits<int>::max();
  [[nodiscard]] RowStride active_in_row(int y, int iteration) const {
    SSLIC_DCHECK(y >= 0 && iteration >= 0);
    const int s = iteration % count_;
    switch (pattern_) {
      case Pattern::kAll:
        return {0, 1};
      case Pattern::kCheckerboard:
        return {(s + y) & 1, 2};
      case Pattern::kBayer2x2:
        if ((y & 1) != (s >> 1)) return {kNoActivePixel, 1};
        return {s & 1, 2};
      case Pattern::kDiagonal:
        return {((s - 2 * (y % count_)) % count_ + count_) % count_, count_};
      case Pattern::kRows:
        if (y % count_ != s) return {kNoActivePixel, 1};
        return {0, 1};
    }
    return {0, 1};
  }

  /// The subset visited at iteration `iteration`.
  [[nodiscard]] int active_subset(int iteration) const {
    SSLIC_DCHECK(iteration >= 0);
    return iteration % count_;
  }

 private:
  enum class Pattern { kAll, kCheckerboard, kBayer2x2, kDiagonal, kRows };

  int count_ = 1;
  Pattern pattern_ = Pattern::kAll;
};

}  // namespace sslic
