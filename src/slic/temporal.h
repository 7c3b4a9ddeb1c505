// Temporal superpixel segmentation for video streams — the deployment
// scenario that motivates the accelerator (paper Section 1: real-time
// mobile vision at 30 fps).
//
// Consecutive video frames are nearly identical, so the cluster centers of
// frame t are an excellent initialization for frame t+1: the k-means-style
// iteration starts near its fixed point and needs far fewer subset
// iterations to converge. This wrapper manages that state and falls back
// to cold (grid) initialization on the first frame, on a resolution/K
// change, or after reset() (e.g. at a scene cut).
//
// All per-frame working memory (Lab conversion buffer, segmentation
// output, iteration scratch) lives in the wrapper, so a steady-state
// stream — same resolution and K from frame 2 on — runs with zero heap
// allocations per frame (asserted by tests/test_fused.cpp).
#pragma once

#include <vector>

#include "slic/subsampled.h"

namespace sslic {

/// Stateful frame-to-frame S-SLIC segmenter with warm starting.
class TemporalSlic {
 public:
  /// Warm frames run default_warm_iterations(params), a smaller budget
  /// than cold ones. Invalid params throw ContractViolation here, not at
  /// the first frame.
  explicit TemporalSlic(SlicParams params,
                        DataWidth data_width = DataWidth::float64());

  /// Segments the next frame of the stream. The returned reference points
  /// at internal state that stays valid until the next call (or
  /// destruction); copy it if you need it longer. `instrumentation`
  /// receives the frame's record, conversion time included.
  [[nodiscard]] const Segmentation& next_frame(
      const RgbImage& frame, Instrumentation* instrumentation = nullptr);

  /// The warm iteration budget: half the cold budget, at least one full
  /// round-robin of the subsets. Exposed so stage-by-stage replays of a
  /// stream (perfbench/traced.cpp) match this segmenter byte for byte.
  [[nodiscard]] static int default_warm_iterations(const SlicParams& params);

  /// Drops the warm state (call at scene cuts).
  void reset() { previous_centers_.clear(); }

  /// True when the previous frame's centers are held. The next frame
  /// warm-starts from them only if it has the same resolution as that
  /// frame; a geometry change still cold-starts.
  [[nodiscard]] bool has_state() const { return !previous_centers_.empty(); }

  [[nodiscard]] const SlicParams& params() const { return cold_.params(); }
  [[nodiscard]] int warm_iterations() const {
    return warm_.params().max_iterations;
  }

 private:
  PpaSlic cold_;  ///< full iteration budget, grid-seeded
  PpaSlic warm_;  ///< warm budget, seeded from previous_centers_
  int state_width_ = 0;
  int state_height_ = 0;
  std::vector<ClusterCenter> previous_centers_;
  // Per-frame buffers, reused across calls.
  LabImage lab_;
  Segmentation result_;
  IterationScratch scratch_;
};

}  // namespace sslic
