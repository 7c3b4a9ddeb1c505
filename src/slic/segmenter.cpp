#include "slic/segmenter.h"

#include <sstream>

#include "common/check.h"
#include "slic/slic_baseline.h"
#include "slic/subsampled.h"

namespace sslic {

std::string algorithm_name(Algorithm algorithm, double subsample_ratio) {
  std::ostringstream os;
  switch (algorithm) {
    case Algorithm::kSlic:
      return "SLIC";
    case Algorithm::kSslicPpa:
      os << "S-SLIC-PPA (" << subsample_ratio << ")";
      return os.str();
    case Algorithm::kSslicCpa:
      os << "S-SLIC-CPA (" << subsample_ratio << ")";
      return os.str();
  }
  return "?";
}

Segmentation run_segmenter(Algorithm algorithm, const SlicParams& params,
                           const RgbImage& image, DataWidth data_width,
                           const IterationCallback& callback,
                           Instrumentation* instrumentation) {
  switch (algorithm) {
    case Algorithm::kSlic: {
      SlicParams p = params;
      p.subsample_ratio = 1.0;
      return CpaSlic(p).segment(image, callback, instrumentation);
    }
    case Algorithm::kSslicPpa:
      return PpaSlic(params, data_width)
          .segment(image, callback, instrumentation);
    case Algorithm::kSslicCpa:
      return CpaSlic(params).segment(image, callback, instrumentation);
  }
  SSLIC_CHECK_MSG(false, "unknown algorithm");
}

Segmentation run_segmenter_lab(Algorithm algorithm, const SlicParams& params,
                               const LabImage& lab, DataWidth data_width,
                               const IterationCallback& callback,
                               Instrumentation* instrumentation) {
  switch (algorithm) {
    case Algorithm::kSlic: {
      SlicParams p = params;
      p.subsample_ratio = 1.0;
      return CpaSlic(p).segment_lab(lab, callback, instrumentation);
    }
    case Algorithm::kSslicPpa:
      return PpaSlic(params, data_width)
          .segment_lab(lab, callback, instrumentation);
    case Algorithm::kSslicCpa:
      return CpaSlic(params).segment_lab(lab, callback, instrumentation);
  }
  SSLIC_CHECK_MSG(false, "unknown algorithm");
}

}  // namespace sslic
