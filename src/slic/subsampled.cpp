#include "slic/subsampled.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/perf_counters.h"
#include "common/trace.h"
#include "image/planar.h"
#include "slic/assign_kernels.h"
#include "slic/center_update.h"
#include "slic/connectivity.h"
#include "slic/fusion.h"
#include "slic/grid.h"
#include "slic/slic_baseline.h"
#include "slic/subset_schedule.h"

namespace sslic {

PpaSlic::PpaSlic(SlicParams params, DataWidth data_width)
    : params_(params), data_width_(data_width) {
  SSLIC_CHECK(params_.num_superpixels >= 1);
  SSLIC_CHECK(params_.compactness > 0.0);
  SSLIC_CHECK(params_.max_iterations >= 1);
}

Segmentation PpaSlic::segment(const RgbImage& image,
                              const IterationCallback& callback,
                              Instrumentation* instrumentation,
                              PhaseTimer* phases) const {
  LabImage lab;
  {
    Stopwatch watch;
    lab = srgb_to_lab(image);
    if (phases != nullptr)
      phases->add(CpaSlic::kPhaseColorConversion, watch.elapsed_ms());
  }
  return segment_lab(lab, callback, instrumentation, phases);
}

Segmentation PpaSlic::segment_lab(const LabImage& lab,
                                  const IterationCallback& callback,
                                  Instrumentation* instrumentation,
                                  PhaseTimer* phases) const {
  Segmentation result;
  IterationScratch scratch;
  segment_impl(lab, nullptr, result, scratch, callback, instrumentation, phases);
  return result;
}

Segmentation PpaSlic::segment_lab_warm(
    const LabImage& lab, const std::vector<ClusterCenter>& initial_centers,
    const IterationCallback& callback, Instrumentation* instrumentation,
    PhaseTimer* phases) const {
  Segmentation result;
  IterationScratch scratch;
  segment_impl(lab, &initial_centers, result, scratch, callback,
               instrumentation, phases);
  return result;
}

void PpaSlic::segment_lab_into(const LabImage& lab, Segmentation& result,
                               IterationScratch& scratch,
                               const IterationCallback& callback,
                               Instrumentation* instrumentation,
                               PhaseTimer* phases) const {
  segment_impl(lab, nullptr, result, scratch, callback, instrumentation,
               phases);
}

void PpaSlic::segment_lab_warm_into(
    const LabImage& lab, const std::vector<ClusterCenter>& initial_centers,
    Segmentation& result, IterationScratch& scratch,
    const IterationCallback& callback, Instrumentation* instrumentation,
    PhaseTimer* phases) const {
  segment_impl(lab, &initial_centers, result, scratch, callback,
               instrumentation, phases);
}

void PpaSlic::segment_impl(const LabImage& lab,
                           const std::vector<ClusterCenter>* warm_centers,
                           Segmentation& result, IterationScratch& scratch,
                           const IterationCallback& callback,
                           Instrumentation* instrumentation,
                           PhaseTimer* phases) const {
  SSLIC_CHECK(!lab.empty());
  SSLIC_TRACE_SCOPE("ppa.segment");
  SSLIC_PERF_SCOPE("ppa.segment");
  const int w = lab.width();
  const int h = lab.height();
  const std::size_t n = lab.size();

  Instrumentation local_instr;
  Instrumentation& instr = instrumentation != nullptr ? *instrumentation : local_instr;
  instr = Instrumentation{};
  const bool fused = fusion_enabled();
  instr.fused = fused;
  instr.warm = warm_centers != nullptr;

  Stopwatch init_watch;
  const CenterGrid grid(w, h, params_.num_superpixels);
  const DistanceCalculator dist(params_.compactness, grid.spacing(), data_width_);
  const SubsetSchedule schedule =
      SubsetSchedule::from_ratio(params_.subsample_ratio, params_.subset_pattern);
  const int num_centers = grid.num_centers();
  const auto num_centers_z = static_cast<std::size_t>(num_centers);

  // Model n-bit storage: the image (and, after every update, the centers)
  // are held at the configured data width. At full float width the input
  // image is already in stored form — no copy needed.
  const LabImage* stored_ptr = &lab;
  if (data_width_.color_bits != 0) {
    scratch.stored = lab;
    for (auto& px : scratch.stored.pixels()) px = dist.quantize(px);
    stored_ptr = &scratch.stored;
  }
  const LabImage& stored = *stored_ptr;

  if (warm_centers != nullptr) {
    SSLIC_CHECK_MSG(static_cast<int>(warm_centers->size()) == num_centers,
                    "warm start has " << warm_centers->size()
                                      << " centers, grid needs " << num_centers);
    result.centers.assign(warm_centers->begin(), warm_centers->end());
    for (auto& c : result.centers) {
      c.x = std::clamp(c.x, 0.0, static_cast<double>(w - 1));
      c.y = std::clamp(c.y, 0.0, static_cast<double>(h - 1));
    }
  } else {
    seed_centers(grid, stored, params_.perturb_centers, result.centers,
                 scratch.gradient);
  }
  for (auto& c : result.centers) dist.quantize_center(c);
  initial_labels(grid, result.labels);
  result.iterations_run = 0;
  result.trace.clear();
  result.trace.reserve(static_cast<std::size_t>(params_.max_iterations));

  const std::vector<CandidateList>& candidates = scratch.candidate_map(grid);

  // Running minimum-distance buffer (Fig. 1b keeps one in the software
  // formulation; the accelerator holds the running minimum in registers).
  std::vector<double>& min_dist = scratch.min_dist;
  min_dist.assign(n, std::numeric_limits<double>::infinity());

  // Planar split of the (quantized) stored image feeds the vectorized
  // candidate kernel; the subset mask is materialized per row. Kernel
  // dispatch is resolved once, outside the tile loops.
  split_lab_planes(stored, scratch.planes);
  const LabPlanes& planes = scratch.planes;
  const kernels::KernelTable& kt = kernels::active();
  const double spatial_weight = dist.spatial_weight();
  std::vector<std::uint8_t>& row_active = scratch.row_active;
  row_active.assign(static_cast<std::size_t>(w), 0);

  std::vector<Sigma>& sigmas = scratch.sigmas;
  sigmas.assign(num_centers_z, Sigma{});
  // Preemptive extension state.
  std::vector<std::uint8_t>& frozen = scratch.frozen;
  frozen.assign(num_centers_z, 0);
  std::vector<std::uint8_t>& calm_streak = scratch.calm_streak;
  calm_streak.assign(num_centers_z, 0);
  std::vector<std::uint8_t>& tile_skipped = scratch.tile_skipped;
  tile_skipped.assign(num_centers_z, 0);
  if (phases != nullptr) phases->add(CpaSlic::kPhaseOther, init_watch.elapsed_ms());

  for (int iter = 0; iter < params_.max_iterations; ++iter) {
    SSLIC_TRACE_SCOPE("ppa.iter", iter);
    Stopwatch iter_watch;
    IterationStats stats;
    stats.iteration = iter;

    // --- Per-pixel assignment over the active subset, tile by tile. ---
    // Fused mode accumulates each stripe's sigma contributions right after
    // the stripe's tiles finish (the labels of those rows are final for
    // this iteration); stripes are ascending contiguous row ranges, so the
    // accumulation order is exactly the global row-major order of the
    // two-pass update loop and sigmas match it bit for bit.
    Stopwatch assign_watch;
    trace::Interval assign_span;
    perf::IntervalSample iter_perf;
    std::fill(tile_skipped.begin(), tile_skipped.end(), std::uint8_t{0});
    if (fused) {
      for (auto& s : sigmas) s.clear();
    }
    std::uint64_t accumulated = 0;
    for (int gy = 0; gy < grid.ny(); ++gy) {
      const int y0 = gy * h / grid.ny();
      const int y1 = (gy + 1) * h / grid.ny();
      for (int gx = 0; gx < grid.nx(); ++gx) {
        SSLIC_TRACE_SCOPE_AT(1, "ppa.tile", grid.center_index(gx, gy));
        const CandidateList& cand =
            candidates[static_cast<std::size_t>(grid.center_index(gx, gy))];

        if (params_.preemptive) {
          const bool all_frozen =
              std::all_of(cand.begin(), cand.end(), [&](std::int32_t c) {
                return frozen[static_cast<std::size_t>(c)] != 0;
              });
          if (all_frozen) {
            instr.tiles_skipped += 1;
            tile_skipped[static_cast<std::size_t>(grid.center_index(gx, gy))] = 1;
            continue;
          }
        }

        const int x0 = gx * w / grid.nx();
        const int x1 = (gx + 1) * w / grid.nx();
        instr.traffic.center_read += 9 * MemTraffic::kCenterBytes;

        // Candidate operands in list order — slot order is the tie-break,
        // exactly as the 9:1 minimum tree resolves ties to the lowest slot.
        std::array<kernels::CenterOperand, 9> cand_ops;
        for (std::size_t k = 0; k < cand.size(); ++k) {
          const ClusterCenter& cc =
              result.centers[static_cast<std::size_t>(cand[k])];
          cand_ops[k] = {cc.L, cc.a, cc.b, cc.x, cc.y, cand[k]};
        }
        const std::int32_t count = x1 - x0;
        std::int32_t* labels_ptr = result.labels.pixels().data();
        const bool all_active = schedule.count() == 1;
        for (int y = y0; y < y1; ++y) {
          const std::size_t off =
              static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
              static_cast<std::size_t>(x0);
          std::uint64_t visited = static_cast<std::uint64_t>(count);
          const std::uint8_t* mask = nullptr;
          if (!all_active) {
            visited = 0;
            for (int x = x0; x < x1; ++x) {
              const bool is_active = schedule.active(x, y, iter);
              row_active[static_cast<std::size_t>(x - x0)] =
                  is_active ? std::uint8_t{1} : std::uint8_t{0};
              visited += is_active ? 1 : 0;
            }
            if (visited == 0) continue;
            mask = row_active.data();
          }
          SSLIC_TRACE_SCOPE_AT(2, "ppa.kernel.row", y);
          kt.assign_candidates_row(
              planes.L.data() + off, planes.a.data() + off,
              planes.b.data() + off, x0, count, static_cast<double>(y),
              cand_ops.data(), static_cast<std::int32_t>(cand.size()),
              spatial_weight, mask, min_dist.data() + off, labels_ptr + off);
          stats.pixels_visited += visited;
        }
        // Software-prototype DRAM convention (see instrumentation.h): per
        // visited pixel Lab(12)+candidates(18)+label r/w(8)+min-dist r/w(8).
        // Counted per pixel below via stats; candidate bytes are also
        // charged per pixel to match the profiled prototype.
      }

      // --- Fused stripe accumulation over rows [y0, y1). ---
      if (fused) {
        SSLIC_TRACE_SCOPE_AT(1, "ppa.fused_accumulate", gy);
        const std::int32_t* labels_ptr = result.labels.pixels().data();
        const bool all_active = schedule.count() == 1;
        if (all_active && !params_.preemptive) {
          // Every pixel contributes: whole rows through the SIMD scatter
          // kernel (bit-equal to the scalar loop; see assign_kernels.h).
          for (int y = y0; y < y1; ++y) {
            const std::size_t off =
                static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
            kt.accumulate_row(planes.L.data() + off, planes.a.data() + off,
                              planes.b.data() + off, 0, w, y,
                              labels_ptr + off, sigmas.data());
          }
          accumulated +=
              static_cast<std::uint64_t>(y1 - y0) * static_cast<std::uint64_t>(w);
        } else {
          // Masked path: identical skip conditions to the two-pass update
          // loop (inactive subset members; tiles the preemptive extension
          // skipped this iteration).
          for (int y = y0; y < y1; ++y) {
            const int cell_gy = grid.cell_y(y);
            for (int x = 0; x < w; ++x) {
              if (!schedule.active(x, y, iter)) continue;
              if (params_.preemptive &&
                  tile_skipped[static_cast<std::size_t>(
                      grid.center_index(grid.cell_x(x), cell_gy))] != 0) {
                continue;
              }
              const std::size_t flat =
                  static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
                  static_cast<std::size_t>(x);
              sigmas[static_cast<std::size_t>(labels_ptr[flat])].add(
                  stored.pixels()[flat], x, y);
              accumulated += 1;
            }
          }
        }
      }
    }
    // Hoisted out of the inner loop: every visited pixel scans exactly the
    // 9-candidate list (9 distance evals, 8 running-min compares).
    instr.ops.distance_evals += stats.pixels_visited * 9;
    instr.ops.compare_ops += stats.pixels_visited * 8;
    instr.traffic.image_read += stats.pixels_visited * MemTraffic::kLabBytes;
    instr.traffic.candidate_read +=
        stats.pixels_visited * MemTraffic::kCandidateBytes;
    instr.traffic.label_read += stats.pixels_visited * MemTraffic::kLabelBytes;
    instr.traffic.label_write += stats.pixels_visited * MemTraffic::kLabelBytes;
    instr.traffic.distance_read +=
        stats.pixels_visited * MemTraffic::kDistanceBytes;
    instr.traffic.distance_write +=
        stats.pixels_visited * MemTraffic::kDistanceBytes;
    if (phases != nullptr)
      phases->add(CpaSlic::kPhaseDistanceMin, assign_watch.elapsed_ms());
    assign_span.complete("ppa.assign", iter);
    iter_perf.complete("ppa.assign");

    // --- Center update from the subset's accumulations (OS-EM style). ---
    // In two-pass mode the sigma accumulation runs as its own pass (the
    // hardware's cluster update unit accumulates from tile-resident data,
    // so this adds no DRAM traffic) and is charged to the center-update
    // phase, matching the paper's Table-1 accounting. In fused mode it
    // already happened stripe by stripe above; only the division remains.
    Stopwatch update_watch;
    trace::Interval update_span;
    if (!fused) {
      for (auto& s : sigmas) s.clear();
      for (int y = 0; y < h; ++y) {
        const int gy = grid.cell_y(y);
        for (int x = 0; x < w; ++x) {
          if (!schedule.active(x, y, iter)) continue;
          if (params_.preemptive &&
              tile_skipped[static_cast<std::size_t>(
                  grid.center_index(grid.cell_x(x), gy))] != 0) {
            continue;
          }
          const std::size_t flat =
              static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
              static_cast<std::size_t>(x);
          sigmas[static_cast<std::size_t>(result.labels.pixels()[flat])].add(
              stored.pixels()[flat], x, y);
          accumulated += 1;
        }
      }
    }
    instr.ops.accumulate_ops += 6 * accumulated;
    double movement_sum = 0.0;
    std::size_t updated = 0;
    for (std::size_t ci = 0; ci < result.centers.size(); ++ci) {
      const Sigma& s = sigmas[ci];
      if (s.count == 0) continue;
      const double inv = 1.0 / static_cast<double>(s.count);
      ClusterCenter next{s.L * inv, s.a * inv, s.b * inv, s.x * inv, s.y * inv};
      dist.quantize_center(next);
      const double moved =
          std::abs(next.x - result.centers[ci].x) +
          std::abs(next.y - result.centers[ci].y);
      movement_sum += moved;
      ++updated;
      result.centers[ci] = next;
      instr.ops.divide_ops += 5;

      if (params_.preemptive) {
        if (moved < params_.freeze_threshold) {
          if (calm_streak[ci] < 255) calm_streak[ci] += 1;
          if (calm_streak[ci] >= 2) frozen[ci] = 1;
        } else {
          calm_streak[ci] = 0;
          frozen[ci] = 0;
        }
      }
    }
    stats.center_movement =
        updated == 0 ? 0.0 : movement_sum / static_cast<double>(updated);
    instr.traffic.center_write +=
        static_cast<std::uint64_t>(num_centers) * MemTraffic::kCenterBytes;
    if (phases != nullptr)
      phases->add(CpaSlic::kPhaseCenterUpdate, update_watch.elapsed_ms());
    update_span.complete("ppa.update", iter);
    iter_perf.complete("ppa.update");

    instr.iterations += 1;
    result.iterations_run = iter + 1;
    stats.elapsed_ms = iter_watch.elapsed_ms();
    result.trace.push_back(stats);

    if (callback) callback(stats, result.labels, result.centers);

    if (params_.convergence_threshold > 0.0 &&
        stats.center_movement < params_.convergence_threshold &&
        iter + 1 >= schedule.count()) {
      break;
    }
  }

  if (params_.enforce_connectivity) {
    Stopwatch conn_watch;
    SSLIC_TRACE_SCOPE("ppa.connectivity");
    SSLIC_PERF_SCOPE("ppa.connectivity");
    enforce_connectivity(result.labels, params_.num_superpixels,
                         &scratch.connectivity);
    if (phases != nullptr) phases->add(CpaSlic::kPhaseOther, conn_watch.elapsed_ms());
  }
}

}  // namespace sslic
