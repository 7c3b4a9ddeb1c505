#include "slic/slic_baseline.h"

#include "common/check.h"
#include "common/trace.h"
#include "slic/connectivity.h"
#include "slic/iteration.h"
#include "slic/subset_schedule.h"

namespace sslic {

CpaSlic::CpaSlic(SlicParams params) : params_(params) {
  SSLIC_CHECK(params_.num_superpixels >= 1);
  SSLIC_CHECK(params_.compactness > 0.0);
  SSLIC_CHECK(params_.max_iterations >= 1);
}

Segmentation CpaSlic::segment(const RgbImage& image,
                              const IterationCallback& callback,
                              Instrumentation* instrumentation) const {
  LabImage lab;
  const double convert_ms = srgb_to_lab(image, lab);
  Segmentation result = segment_lab(lab, callback, instrumentation);
  // After the run: segment_lab_into resets the record.
  if (instrumentation != nullptr) instrumentation->convert_ms = convert_ms;
  return result;
}

Segmentation CpaSlic::segment_lab(const LabImage& lab,
                                  const IterationCallback& callback,
                                  Instrumentation* instrumentation) const {
  Segmentation result;
  IterationScratch scratch;
  segment_lab_into(lab, result, scratch, callback, instrumentation);
  return result;
}

void CpaSlic::segment_lab_into(const LabImage& lab, Segmentation& result,
                               IterationScratch& scratch,
                               const IterationCallback& callback,
                               Instrumentation* instrumentation) const {
  SSLIC_CHECK(!lab.empty());
  SSLIC_TRACE_SCOPE("cpa.segment");
  const int w = lab.width();
  const int h = lab.height();

  Instrumentation local_instr;
  Instrumentation& instr = instrumentation != nullptr ? *instrumentation : local_instr;
  instr = Instrumentation{};

  // One clock per stage: each Interval::complete() ends a stage, records
  // its span and adds the same measurement to the stage's field.
  trace::Interval init_stage;
  if (result.labels.width() != w || result.labels.height() != h)
    result.labels = LabelImage(w, h);
  // Subsampled CPA keeps a persistent minimum-distance buffer ("two memory
  // buffers as large as the image", paper Section 2); full SLIC resets it
  // every iteration, so the core keeps those minima per region instead.
  double* min_dist = nullptr;
  if (SubsetSchedule::from_ratio(params_.subsample_ratio).count() > 1) {
    scratch.min_dist.resize(lab.size());
    min_dist = scratch.min_dist.data();
  }
  run_cpa(PlaneView::of(lab, result.labels.pixels().data(), min_dist),
          RegionGrid{}, params_, init_stage, result, scratch, instr, callback);

  if (params_.enforce_connectivity) {
    trace::Interval connectivity_stage;
    const ConnectivityResult connectivity = enforce_connectivity(
        result.labels, params_.num_superpixels, &scratch.connectivity);
    instr.final_label_count =
        static_cast<std::uint64_t>(connectivity.final_label_count);
    instr.pixels_relabelled = connectivity.pixels_moved;
    instr.connectivity_ms += connectivity_stage.complete("cpa.connectivity");
  }
}

}  // namespace sslic
