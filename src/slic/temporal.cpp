#include "slic/temporal.h"

#include <algorithm>
#include <cmath>

#include "common/trace.h"
#include "slic/subset_schedule.h"

namespace sslic {

namespace {

SlicParams with_warm_budget(SlicParams params) {
  params.max_iterations = TemporalSlic::default_warm_iterations(params);
  return params;
}

}  // namespace

TemporalSlic::TemporalSlic(SlicParams params, DataWidth data_width)
    : cold_(params, data_width), warm_(with_warm_budget(params), data_width) {}

int TemporalSlic::default_warm_iterations(const SlicParams& params) {
  const int subsets =
      SubsetSchedule::from_ratio(params.subsample_ratio).count();
  return std::max(subsets, params.max_iterations / 2);
}

const Segmentation& TemporalSlic::next_frame(const RgbImage& frame,
                                             Instrumentation* instrumentation) {
  // Every frame gets a frame context: keep the caller's ambient id if one
  // is installed (e.g. a pipeline that minted per-frame ids itself), mint a
  // fresh one otherwise so standalone sequential runs still produce
  // joinable spans/exemplars. Observational only — never read by the
  // segmentation itself.
  const std::uint64_t ambient = trace::current_trace_id();
  const trace::FrameScope frame_scope(ambient != 0 ? ambient
                                                   : trace::mint_trace_id());

  const bool can_warm = has_state() && frame.width() == state_width_ &&
                        frame.height() == state_height_;

  const double convert_ms = srgb_to_lab(frame, lab_);
  if (can_warm) {
    warm_.segment_lab_warm_into(lab_, previous_centers_, result_, scratch_, {},
                                instrumentation);
  } else {
    cold_.segment_lab_into(lab_, result_, scratch_, {}, instrumentation);
  }
  // After the run: the _into call resets the record.
  if (instrumentation != nullptr) instrumentation->convert_ms = convert_ms;

  // Same center count in steady state: copy-assign reuses the storage.
  previous_centers_ = result_.centers;
  state_width_ = frame.width();
  state_height_ = frame.height();
  return result_;
}

}  // namespace sslic
