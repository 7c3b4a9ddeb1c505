// Center Perspective Architecture (CPA) SLIC — the original algorithm of
// Achanta et al. as the paper's Fig. 1a describes it, plus the
// center-subsampled S-SLIC CPA variant of Section 3.
//
// With subsample_ratio == 1 this is exact baseline SLIC: every iteration
// resets the minimum-distance buffer, scans the 2Sx2S window of every
// center, reassigns every pixel, and recomputes every center.
//
// With subsample_ratio == 1/n the centers are split into n equal
// round-robin subsets; each iteration scans only the active subset's
// windows, so the minimum-distance buffer persists across iterations
// (distances of inactive centers age — the accuracy cost the paper observes
// for CPA subsampling relative to PPA).
#pragma once

#include "color/color_convert.h"
#include "slic/instrumentation.h"
#include "slic/iteration_scratch.h"
#include "slic/types.h"

namespace sslic {

/// CPA SLIC segmenter (baseline SLIC when subsample_ratio == 1).
class CpaSlic {
 public:
  explicit CpaSlic(SlicParams params);

  /// Segments an RGB image (color conversion timed as its own stage,
  /// `Instrumentation::convert_ms`).
  [[nodiscard]] Segmentation segment(
      const RgbImage& image, const IterationCallback& callback = {},
      Instrumentation* instrumentation = nullptr) const;

  /// Segments an already-converted Lab image.
  [[nodiscard]] Segmentation segment_lab(
      const LabImage& lab, const IterationCallback& callback = {},
      Instrumentation* instrumentation = nullptr) const;

  /// Buffer-reusing variant: writes into `result` and draws every working
  /// buffer from `scratch`. Repeated calls at an unchanged geometry reuse
  /// all prior allocations; once the center buckets and band partials,
  /// sized by where the centers are, reach their high-water mark, a call
  /// makes no heap allocation (seeding included). Results are identical
  /// to segment_lab.
  void segment_lab_into(const LabImage& lab, Segmentation& result,
                        IterationScratch& scratch,
                        const IterationCallback& callback = {},
                        Instrumentation* instrumentation = nullptr) const;

  [[nodiscard]] const SlicParams& params() const { return params_; }

 private:
  SlicParams params_;
};

}  // namespace sslic
