#include "slic/subsampled.h"

#include "common/check.h"
#include "common/trace.h"
#include "slic/connectivity.h"
#include "slic/grid.h"
#include "slic/iteration.h"

namespace sslic {

PpaSlic::PpaSlic(SlicParams params, DataWidth data_width)
    : params_(params), data_width_(data_width) {
  SSLIC_CHECK(params_.num_superpixels >= 1);
  SSLIC_CHECK(params_.compactness > 0.0);
  SSLIC_CHECK(params_.max_iterations >= 1);
}

Segmentation PpaSlic::segment(const RgbImage& image,
                              const IterationCallback& callback,
                              Instrumentation* instrumentation) const {
  LabImage lab;
  const double convert_ms = srgb_to_lab(image, lab);
  Segmentation result = segment_lab(lab, callback, instrumentation);
  // After the run: segment_impl resets the record.
  if (instrumentation != nullptr) instrumentation->convert_ms = convert_ms;
  return result;
}

Segmentation PpaSlic::segment_lab(const LabImage& lab,
                                  const IterationCallback& callback,
                                  Instrumentation* instrumentation) const {
  Segmentation result;
  IterationScratch scratch;
  segment_impl(lab, nullptr, result, scratch, callback, instrumentation);
  return result;
}

Segmentation PpaSlic::segment_lab_warm(
    const LabImage& lab, const std::vector<ClusterCenter>& initial_centers,
    const IterationCallback& callback, Instrumentation* instrumentation) const {
  Segmentation result;
  IterationScratch scratch;
  segment_impl(lab, &initial_centers, result, scratch, callback,
               instrumentation);
  return result;
}

void PpaSlic::segment_lab_into(const LabImage& lab, Segmentation& result,
                               IterationScratch& scratch,
                               const IterationCallback& callback,
                               Instrumentation* instrumentation) const {
  segment_impl(lab, nullptr, result, scratch, callback, instrumentation);
}

void PpaSlic::segment_lab_warm_into(
    const LabImage& lab, const std::vector<ClusterCenter>& initial_centers,
    Segmentation& result, IterationScratch& scratch,
    const IterationCallback& callback,
    Instrumentation* instrumentation) const {
  segment_impl(lab, &initial_centers, result, scratch, callback,
               instrumentation);
}

void PpaSlic::segment_impl(const LabImage& lab,
                           const std::vector<ClusterCenter>* warm_centers,
                           Segmentation& result, IterationScratch& scratch,
                           const IterationCallback& callback,
                           Instrumentation* instrumentation) const {
  SSLIC_CHECK(!lab.empty());
  SSLIC_TRACE_SCOPE("ppa.segment");
  const int w = lab.width();
  const int h = lab.height();

  Instrumentation local_instr;
  Instrumentation& instr = instrumentation != nullptr ? *instrumentation : local_instr;
  instr = Instrumentation{};
  instr.warm = warm_centers != nullptr;

  // One clock per stage: each Interval::complete() ends a stage, records
  // its span and adds the same measurement to the stage's field.
  trace::Interval init_stage;
  const CenterGrid grid(w, h, params_.num_superpixels);
  const DistanceCalculator dist(params_.compactness, grid.spacing(), data_width_);

  // Model n-bit storage: the image (and, after every update, the centers)
  // are held at the configured data width. At full float width the input
  // image is already in stored form — no copy needed.
  const LabImage* stored = &lab;
  if (data_width_.color_bits != 0) {
    LabImage& quantized = scratch.stored;
    if (quantized.width() != w || quantized.height() != h)
      quantized = LabImage(w, h);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) quantized.set(x, y, dist.quantize(lab(x, y)));
    stored = &quantized;
  }
  if (result.labels.width() != w || result.labels.height() != h)
    result.labels = LabelImage(w, h);
  run_ppa(PlaneView::of(*stored, result.labels.pixels().data()), RegionGrid{},
          params_, dist, warm_centers, init_stage, result, scratch, instr,
          callback);

  if (params_.enforce_connectivity) {
    trace::Interval connectivity_stage;
    const ConnectivityResult connectivity = enforce_connectivity(
        result.labels, params_.num_superpixels, &scratch.connectivity);
    instr.final_label_count =
        static_cast<std::uint64_t>(connectivity.final_label_count);
    instr.pixels_relabelled = connectivity.pixels_moved;
    instr.connectivity_ms += connectivity_stage.complete("ppa.connectivity");
  }
}

}  // namespace sslic
