// Algorithm-agnostic entry point: the metrics, bench, and example layers
// select a family member by enum and run it through one call.
#pragma once

#include <string>

#include "slic/distance.h"
#include "slic/instrumentation.h"
#include "slic/types.h"

namespace sslic {

/// The algorithm family (paper Fig. 1 and Section 4.2).
enum class Algorithm {
  kSlic,      ///< baseline SLIC (CPA, full sampling; Fig. 1a)
  kSslicPpa,  ///< S-SLIC, pixel perspective (Fig. 1b) — the contribution
  kSslicCpa,  ///< S-SLIC, center perspective (Section 3's alternative)
};

/// Human-readable name, e.g. "SLIC", "S-SLIC-PPA (0.5)".
std::string algorithm_name(Algorithm algorithm, double subsample_ratio);

/// Runs the selected algorithm. For kSlic, `params.subsample_ratio` is
/// forced to 1. `data_width` applies to the PPA path only (the bit-width
/// exploration targets the accelerator's datapath).
Segmentation run_segmenter(Algorithm algorithm, const SlicParams& params,
                           const RgbImage& image,
                           DataWidth data_width = DataWidth::float64(),
                           const IterationCallback& callback = {},
                           Instrumentation* instrumentation = nullptr);

/// Same, starting from a pre-converted Lab image.
Segmentation run_segmenter_lab(Algorithm algorithm, const SlicParams& params,
                               const LabImage& lab,
                               DataWidth data_width = DataWidth::float64(),
                               const IterationCallback& callback = {},
                               Instrumentation* instrumentation = nullptr);

}  // namespace sslic
