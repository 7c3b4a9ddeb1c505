#include "metrics/segmentation_metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/check.h"
#include "common/thread_pool.h"
#include "image/draw.h"

namespace sslic {
namespace {

int max_label(const LabelImage& labels) {
  // Order-free max reduction over disjoint ranges.
  struct MaxPartial {
    std::int32_t m = -1;
  };
  const MaxPartial result = parallel_reduce<MaxPartial>(
      0, static_cast<std::int64_t>(labels.size()),
      [&](MaxPartial& partial, std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          const std::int32_t v = labels.pixels()[static_cast<std::size_t>(i)];
          SSLIC_CHECK_MSG(v >= 0, "negative label " << v);
          partial.m = std::max(partial.m, v);
        }
      },
      [](MaxPartial& into, MaxPartial&& from) {
        into.m = std::max(into.m, from.m);
      });
  return result.m;
}

}  // namespace

OverlapTable::OverlapTable(const LabelImage& superpixels,
                           const LabelImage& ground_truth) {
  SSLIC_CHECK(superpixels.width() == ground_truth.width() &&
              superpixels.height() == ground_truth.height());
  SSLIC_CHECK(!superpixels.empty());
  num_pixels_ = superpixels.size();
  num_sp_ = max_label(superpixels) + 1;
  num_gt_ = max_label(ground_truth) + 1;

  // Histogramming is parallel over disjoint pixel ranges with per-chunk
  // size vectors and overlap maps; all merged quantities are integer
  // counts, so the merge order cannot affect the result, and the final
  // sort below fixes the overlap ordering regardless of hash iteration.
  struct CountPartial {
    std::vector<std::int64_t> sp_size;
    std::vector<std::int64_t> gt_size;
    std::unordered_map<std::uint64_t, std::int64_t> counts;
  };
  CountPartial merged = parallel_reduce<CountPartial>(
      0, static_cast<std::int64_t>(num_pixels_),
      [&](CountPartial& partial, std::int64_t lo, std::int64_t hi) {
        partial.sp_size.assign(static_cast<std::size_t>(num_sp_), 0);
        partial.gt_size.assign(static_cast<std::size_t>(num_gt_), 0);
        partial.counts.reserve(static_cast<std::size_t>(num_sp_));
        for (std::int64_t i = lo; i < hi; ++i) {
          const auto idx = static_cast<std::size_t>(i);
          const std::int32_t sp = superpixels.pixels()[idx];
          const std::int32_t gt = ground_truth.pixels()[idx];
          partial.sp_size[static_cast<std::size_t>(sp)] += 1;
          partial.gt_size[static_cast<std::size_t>(gt)] += 1;
          const std::uint64_t key =
              (static_cast<std::uint64_t>(static_cast<std::uint32_t>(sp)) << 32) |
              static_cast<std::uint32_t>(gt);
          partial.counts[key] += 1;
        }
      },
      [](CountPartial& into, CountPartial&& from) {
        if (from.sp_size.empty()) return;
        if (into.sp_size.empty()) {
          into = std::move(from);
          return;
        }
        for (std::size_t i = 0; i < into.sp_size.size(); ++i)
          into.sp_size[i] += from.sp_size[i];
        for (std::size_t i = 0; i < into.gt_size.size(); ++i)
          into.gt_size[i] += from.gt_size[i];
        for (const auto& [key, count] : from.counts) into.counts[key] += count;
      });
  sp_size_ = std::move(merged.sp_size);
  gt_size_ = std::move(merged.gt_size);
  overlaps_.reserve(merged.counts.size());
  for (const auto& [key, count] : merged.counts) {
    overlaps_.push_back({static_cast<std::int32_t>(key >> 32),
                         static_cast<std::int32_t>(key & 0xffffffffu), count});
  }
  // Deterministic order for reproducible reductions.
  std::sort(overlaps_.begin(), overlaps_.end(), [](const Overlap& a, const Overlap& b) {
    return a.sp != b.sp ? a.sp < b.sp : a.gt < b.gt;
  });
}

double undersegmentation_error(const OverlapTable& table,
                               double min_overlap_fraction) {
  SSLIC_CHECK(min_overlap_fraction >= 0.0 && min_overlap_fraction <= 1.0);
  const auto& sp_size = table.superpixel_sizes();
  std::int64_t charged = 0;
  for (const auto& o : table.overlaps()) {
    const std::int64_t size = sp_size[static_cast<std::size_t>(o.sp)];
    if (static_cast<double>(o.count) >=
        min_overlap_fraction * static_cast<double>(size)) {
      charged += size;
    }
  }
  return static_cast<double>(charged) / static_cast<double>(table.num_pixels()) -
         1.0;
}

double undersegmentation_error_min(const OverlapTable& table) {
  const auto& sp_size = table.superpixel_sizes();
  std::int64_t charged = 0;
  for (const auto& o : table.overlaps()) {
    const std::int64_t size = sp_size[static_cast<std::size_t>(o.sp)];
    charged += std::min(o.count, size - o.count);
  }
  return static_cast<double>(charged) / static_cast<double>(table.num_pixels());
}

double achievable_segmentation_accuracy(const OverlapTable& table) {
  std::vector<std::int64_t> best(static_cast<std::size_t>(table.num_superpixels()),
                                 0);
  for (const auto& o : table.overlaps()) {
    auto& b = best[static_cast<std::size_t>(o.sp)];
    b = std::max(b, o.count);
  }
  std::int64_t total = 0;
  for (const auto b : best) total += b;
  return static_cast<double>(total) / static_cast<double>(table.num_pixels());
}

namespace {

/// Computes recall of `reference` boundary pixels by `candidate` boundary
/// pixels within Chebyshev distance `tolerance`.
double boundary_match_fraction(const LabelImage& reference,
                               const LabelImage& candidate, int tolerance) {
  SSLIC_CHECK(reference.width() == candidate.width() &&
              reference.height() == candidate.height());
  SSLIC_CHECK(tolerance >= 0);
  const Image<std::uint8_t> ref_mask = boundary_mask(reference);
  const Image<std::uint8_t> cand_mask = boundary_mask(candidate);
  const int w = reference.width();
  const int h = reference.height();

  // Row-parallel: each boundary pixel's tolerance search only reads the
  // candidate mask, and the matched/total tallies are integer sums, so the
  // reduction is order-free.
  struct MatchPartial {
    std::int64_t total = 0;
    std::int64_t matched = 0;
  };
  const MatchPartial result = parallel_reduce<MatchPartial>(
      0, h,
      [&](MatchPartial& partial, std::int64_t ylo, std::int64_t yhi) {
        for (int y = static_cast<int>(ylo); y < static_cast<int>(yhi); ++y) {
          for (int x = 0; x < w; ++x) {
            if (ref_mask(x, y) == 0) continue;
            ++partial.total;
            bool hit = false;
            for (int dy = -tolerance; dy <= tolerance && !hit; ++dy) {
              const int ny = y + dy;
              if (ny < 0 || ny >= h) continue;
              for (int dx = -tolerance; dx <= tolerance; ++dx) {
                const int nx = x + dx;
                if (nx < 0 || nx >= w) continue;
                if (cand_mask(nx, ny) != 0) {
                  hit = true;
                  break;
                }
              }
            }
            if (hit) ++partial.matched;
          }
        }
      },
      [](MatchPartial& into, MatchPartial&& from) {
        into.total += from.total;
        into.matched += from.matched;
      });
  return result.total == 0 ? 1.0
                           : static_cast<double>(result.matched) /
                                 static_cast<double>(result.total);
}

}  // namespace

double boundary_recall(const LabelImage& superpixels,
                       const LabelImage& ground_truth, int tolerance) {
  return boundary_match_fraction(ground_truth, superpixels, tolerance);
}

double boundary_precision(const LabelImage& superpixels,
                          const LabelImage& ground_truth, int tolerance) {
  return boundary_match_fraction(superpixels, ground_truth, tolerance);
}

double compactness(const LabelImage& superpixels) {
  const int n = max_label(superpixels) + 1;
  const int w = superpixels.width();
  const int h = superpixels.height();
  // Row-parallel integer histograms (reads may cross band borders, writes
  // are chunk-local); integer merge is order-free.
  struct AreaPerimeter {
    std::vector<std::int64_t> area;
    std::vector<std::int64_t> perimeter;
  };
  AreaPerimeter acc = parallel_reduce<AreaPerimeter>(
      0, h,
      [&](AreaPerimeter& partial, std::int64_t ylo, std::int64_t yhi) {
        partial.area.assign(static_cast<std::size_t>(n), 0);
        partial.perimeter.assign(static_cast<std::size_t>(n), 0);
        for (int y = static_cast<int>(ylo); y < static_cast<int>(yhi); ++y) {
          for (int x = 0; x < w; ++x) {
            const std::int32_t label = superpixels(x, y);
            partial.area[static_cast<std::size_t>(label)] += 1;
            // 4-connected perimeter; image border counts as boundary.
            const auto differs = [&](int nx, int ny) {
              return nx < 0 || nx >= w || ny < 0 || ny >= h ||
                     superpixels(nx, ny) != label;
            };
            partial.perimeter[static_cast<std::size_t>(label)] +=
                static_cast<int>(differs(x - 1, y)) +
                static_cast<int>(differs(x + 1, y)) +
                static_cast<int>(differs(x, y - 1)) +
                static_cast<int>(differs(x, y + 1));
          }
        }
      },
      [](AreaPerimeter& into, AreaPerimeter&& from) {
        if (from.area.empty()) return;
        if (into.area.empty()) {
          into = std::move(from);
          return;
        }
        for (std::size_t i = 0; i < into.area.size(); ++i) {
          into.area[i] += from.area[i];
          into.perimeter[i] += from.perimeter[i];
        }
      });
  const std::vector<std::int64_t>& area = acc.area;
  const std::vector<std::int64_t>& perimeter = acc.perimeter;
  constexpr double kPi = 3.14159265358979323846;
  double sum = 0.0;
  int counted = 0;
  for (std::size_t i = 0; i < area.size(); ++i) {
    if (area[i] == 0) continue;
    const double q = 4.0 * kPi * static_cast<double>(area[i]) /
                     (static_cast<double>(perimeter[i]) *
                      static_cast<double>(perimeter[i]));
    sum += std::min(1.0, q);
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / counted;
}

double explained_variation(const LabelImage& superpixels, const LabImage& lab) {
  SSLIC_CHECK(superpixels.width() == lab.width() &&
              superpixels.height() == lab.height());
  const int n_labels = max_label(superpixels) + 1;
  struct Acc {
    double L = 0, a = 0, b = 0;
    std::int64_t n = 0;
  };
  // Both passes are chunk-parallel with partials merged in fixed chunk
  // order: the floating-point reduction tree depends only on the pixel
  // count, so the metric is bit-identical at every thread count.
  struct MeanPartial {
    std::vector<Acc> per_label;
    Acc global;
  };
  const float* const pl = lab.L.data();
  const float* const pa = lab.a.data();
  const float* const pb = lab.b.data();
  MeanPartial means = parallel_reduce<MeanPartial>(
      0, static_cast<std::int64_t>(lab.size()),
      [&](MeanPartial& partial, std::int64_t lo, std::int64_t hi) {
        partial.per_label.assign(static_cast<std::size_t>(n_labels), Acc{});
        for (std::int64_t i = lo; i < hi; ++i) {
          const auto idx = static_cast<std::size_t>(i);
          Acc& s = partial.per_label[static_cast<std::size_t>(
              superpixels.pixels()[idx])];
          s.L += static_cast<double>(pl[idx]);
          s.a += static_cast<double>(pa[idx]);
          s.b += static_cast<double>(pb[idx]);
          s.n += 1;
          partial.global.L += static_cast<double>(pl[idx]);
          partial.global.a += static_cast<double>(pa[idx]);
          partial.global.b += static_cast<double>(pb[idx]);
          partial.global.n += 1;
        }
      },
      [](MeanPartial& into, MeanPartial&& from) {
        if (from.per_label.empty()) return;
        if (into.per_label.empty()) {
          into = std::move(from);
          return;
        }
        for (std::size_t i = 0; i < into.per_label.size(); ++i) {
          into.per_label[i].L += from.per_label[i].L;
          into.per_label[i].a += from.per_label[i].a;
          into.per_label[i].b += from.per_label[i].b;
          into.per_label[i].n += from.per_label[i].n;
        }
        into.global.L += from.global.L;
        into.global.a += from.global.a;
        into.global.b += from.global.b;
        into.global.n += from.global.n;
      });
  const std::vector<Acc>& acc = means.per_label;
  const double gl = means.global.L / static_cast<double>(means.global.n);
  const double ga = means.global.a / static_cast<double>(means.global.n);
  const double gb = means.global.b / static_cast<double>(means.global.n);

  struct VarPartial {
    double between = 0.0;  // variance of the superpixel means
    double total = 0.0;    // total variance
  };
  const VarPartial var = parallel_reduce<VarPartial>(
      0, static_cast<std::int64_t>(lab.size()),
      [&](VarPartial& partial, std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          const auto idx = static_cast<std::size_t>(i);
          const Acc& s =
              acc[static_cast<std::size_t>(superpixels.pixels()[idx])];
          const double ml = s.L / static_cast<double>(s.n);
          const double ma = s.a / static_cast<double>(s.n);
          const double mb = s.b / static_cast<double>(s.n);
          partial.between += (ml - gl) * (ml - gl) + (ma - ga) * (ma - ga) +
                             (mb - gb) * (mb - gb);
          const double dl = static_cast<double>(pl[idx]) - gl;
          const double da = static_cast<double>(pa[idx]) - ga;
          const double db = static_cast<double>(pb[idx]) - gb;
          partial.total += dl * dl + da * da + db * db;
        }
      },
      [](VarPartial& into, VarPartial&& from) {
        into.between += from.between;
        into.total += from.total;
      });
  return var.total <= 0.0 ? 1.0 : var.between / var.total;
}

double contour_density(const LabelImage& superpixels) {
  SSLIC_CHECK(!superpixels.empty());
  const Image<std::uint8_t> mask = boundary_mask(superpixels);
  std::int64_t boundary = 0;
  for (const auto v : mask.pixels()) boundary += v;
  return static_cast<double>(boundary) / static_cast<double>(mask.size());
}

double variation_of_information(const LabelImage& a, const LabelImage& b) {
  const OverlapTable table(a, b);
  const auto n = static_cast<double>(table.num_pixels());
  // VI = H(A) + H(B) - 2 I(A;B), computed from the joint distribution.
  double h_a = 0.0;
  for (const auto size : table.superpixel_sizes()) {
    if (size == 0) continue;
    const double p = static_cast<double>(size) / n;
    h_a -= p * std::log(p);
  }
  double h_b = 0.0;
  for (const auto size : table.region_sizes()) {
    if (size == 0) continue;
    const double p = static_cast<double>(size) / n;
    h_b -= p * std::log(p);
  }
  double mutual = 0.0;
  for (const auto& o : table.overlaps()) {
    const double p_joint = static_cast<double>(o.count) / n;
    const double p_a =
        static_cast<double>(table.superpixel_sizes()[static_cast<std::size_t>(o.sp)]) / n;
    const double p_b =
        static_cast<double>(table.region_sizes()[static_cast<std::size_t>(o.gt)]) / n;
    mutual += p_joint * std::log(p_joint / (p_a * p_b));
  }
  return std::max(0.0, h_a + h_b - 2.0 * mutual);
}

double undersegmentation_error(const LabelImage& superpixels,
                               const LabelImage& ground_truth,
                               double min_overlap_fraction) {
  return undersegmentation_error(OverlapTable(superpixels, ground_truth),
                                 min_overlap_fraction);
}

double undersegmentation_error_min(const LabelImage& superpixels,
                                   const LabelImage& ground_truth) {
  return undersegmentation_error_min(OverlapTable(superpixels, ground_truth));
}

double achievable_segmentation_accuracy(const LabelImage& superpixels,
                                        const LabelImage& ground_truth) {
  return achievable_segmentation_accuracy(OverlapTable(superpixels, ground_truth));
}

MultiGroundTruthQuality evaluate_against_annotators(
    const LabelImage& superpixels, const std::vector<LabelImage>& truths,
    int boundary_tolerance) {
  SSLIC_CHECK(!truths.empty());
  MultiGroundTruthQuality q;
  q.annotators = static_cast<int>(truths.size());
  q.use_best = std::numeric_limits<double>::max();
  q.recall_best = 0.0;
  // Annotators are independent, so each ground truth is scored in parallel
  // (the per-truth metrics fall back to serial when called from a worker);
  // results land in per-truth slots and are folded in annotator order, so
  // the means are bit-identical to a serial evaluation.
  struct TruthScore {
    double use = 0.0, use_min = 0.0, recall = 0.0, asa = 0.0;
  };
  std::vector<TruthScore> scores(truths.size());
  parallel_for(0, static_cast<std::int64_t>(truths.size()),
               [&](std::int64_t lo, std::int64_t hi) {
                 for (std::int64_t i = lo; i < hi; ++i) {
                   const auto idx = static_cast<std::size_t>(i);
                   const LabelImage& truth = truths[idx];
                   const OverlapTable table(superpixels, truth);
                   scores[idx].use = undersegmentation_error(table);
                   scores[idx].use_min = undersegmentation_error_min(table);
                   scores[idx].recall =
                       boundary_recall(superpixels, truth, boundary_tolerance);
                   scores[idx].asa = achievable_segmentation_accuracy(table);
                 }
               });
  for (const TruthScore& s : scores) {
    q.use_mean += s.use;
    q.use_min_mean += s.use_min;
    q.recall_mean += s.recall;
    q.asa_mean += s.asa;
    q.use_best = std::min(q.use_best, s.use);
    q.recall_best = std::max(q.recall_best, s.recall);
  }
  const auto n = static_cast<double>(truths.size());
  q.use_mean /= n;
  q.use_min_mean /= n;
  q.recall_mean /= n;
  q.asa_mean /= n;
  return q;
}

int count_labels(const LabelImage& labels) {
  std::vector<bool> seen(static_cast<std::size_t>(max_label(labels)) + 1, false);
  int count = 0;
  for (const auto v : labels.pixels()) {
    auto idx = static_cast<std::size_t>(v);
    if (!seen[idx]) {
      seen[idx] = true;
      ++count;
    }
  }
  return count;
}

}  // namespace sslic
