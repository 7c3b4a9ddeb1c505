#include "slic/slic_baseline.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "image/planar.h"
#include "slic/assign_kernels.h"
#include "slic/center_update.h"
#include "slic/connectivity.h"
#include "slic/distance.h"
#include "slic/fusion.h"
#include "slic/grid.h"
#include "slic/subset_schedule.h"

namespace sslic {

CpaSlic::CpaSlic(SlicParams params) : params_(params) {
  SSLIC_CHECK(params_.num_superpixels >= 1);
  SSLIC_CHECK(params_.compactness > 0.0);
  SSLIC_CHECK(params_.max_iterations >= 1);
}

Segmentation CpaSlic::segment(const RgbImage& image,
                              const IterationCallback& callback,
                              Instrumentation* instrumentation,
                              PhaseTimer* phases) const {
  LabImage lab;
  {
    Stopwatch watch;
    lab = srgb_to_lab(image);
    if (phases != nullptr) phases->add(kPhaseColorConversion, watch.elapsed_ms());
  }
  return segment_lab(lab, callback, instrumentation, phases);
}

Segmentation CpaSlic::segment_lab(const LabImage& lab,
                                  const IterationCallback& callback,
                                  Instrumentation* instrumentation,
                                  PhaseTimer* phases) const {
  Segmentation result;
  IterationScratch scratch;
  segment_lab_into(lab, result, scratch, callback, instrumentation, phases);
  return result;
}

void CpaSlic::segment_lab_into(const LabImage& lab, Segmentation& result,
                               IterationScratch& scratch,
                               const IterationCallback& callback,
                               Instrumentation* instrumentation,
                               PhaseTimer* phases) const {
  SSLIC_CHECK(!lab.empty());
  SSLIC_TRACE_SCOPE("cpa.segment");
  const int w = lab.width();
  const int h = lab.height();
  const std::size_t n = lab.size();

  Instrumentation local_instr;
  Instrumentation& instr = instrumentation != nullptr ? *instrumentation : local_instr;
  instr = Instrumentation{};
  const bool fused = fusion_enabled();
  instr.fused = fused;

  // One clock per stage: each Interval::complete() below ends a stage and
  // feeds the same measurement to its span and to its PhaseTimer phase.
  trace::Interval init_stage;
  const CenterGrid grid(w, h, params_.num_superpixels);
  const double spacing = grid.spacing();
  const DistanceCalculator dist(params_.compactness, spacing);
  const SubsetSchedule schedule = SubsetSchedule::from_ratio(params_.subsample_ratio);
  const int num_centers = grid.num_centers();
  const auto num_centers_z = static_cast<std::size_t>(num_centers);

  seed_centers(grid, lab, params_.perturb_centers, result.centers,
               scratch.gradient);
  initial_labels(grid, result.labels);
  result.iterations_run = 0;
  result.trace.clear();
  result.trace.reserve(static_cast<std::size_t>(params_.max_iterations));

  // Persistent minimum-distance buffer ("two memory buffers as large as the
  // image", paper Section 2). For full SLIC it is reset every iteration.
  std::vector<double>& min_dist = scratch.min_dist;
  min_dist.assign(n, std::numeric_limits<double>::infinity());
  const bool subsampled = schedule.count() > 1;
  if (subsampled) {
    // Subsampled CPA keeps the buffer across iterations, so it must start
    // with the distance to the initially-assigned center. Row-parallel:
    // every pixel is independent.
    const std::int32_t* labels_ptr = result.labels.pixels().data();
    parallel_for(0, h, [&](std::int64_t ylo, std::int64_t yhi) {
      for (int y = static_cast<int>(ylo); y < static_cast<int>(yhi); ++y) {
        for (int x = 0; x < w; ++x) {
          const std::size_t flat =
              static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
              static_cast<std::size_t>(x);
          const auto label = static_cast<std::size_t>(labels_ptr[flat]);
          min_dist[flat] = dist.squared(lab(x, y), x, y, result.centers[label]);
        }
      }
    });
    instr.ops.distance_evals += n;
  }

  std::vector<Sigma>& sigmas = scratch.sigmas;
  sigmas.assign(num_centers_z, Sigma{});
  std::vector<std::uint8_t>& active = scratch.active;
  active.assign(num_centers_z, 1);
  std::vector<ScanWindow>& windows = scratch.windows;
  windows.resize(num_centers_z);

  // Fused iteration: the image is split into the same fixed band budget the
  // two-pass parallel_reduce uses (kReduceChunks, clamped to the height).
  // Band boundaries depend only on the image height, never on the thread
  // count, so the per-band sigma partials — and the ascending-order merge
  // below — rebuild the exact floating-point reduction tree of the
  // two-pass code. Labels are band-partition-invariant anyway (each pixel
  // sees its candidate centers in ascending index order regardless of the
  // split), so both paths are bit-identical end to end.
  const std::size_t bands =
      std::min<std::size_t>(detail::kReduceChunks, static_cast<std::size_t>(h));
  if (fused) scratch.ensure_band_sigmas(bands, num_centers_z);

  // One planar split per frame feeds the vectorized assignment kernels
  // (SoA channel planes; see image/planar.h). Resolved kernel table is
  // fetched once — dispatch never runs inside the pixel loops.
  split_lab_planes(lab, scratch.planes);
  const LabPlanes& planes = scratch.planes;
  const kernels::KernelTable& kt = kernels::active();
  const double spatial_weight = dist.spatial_weight();
  const double init_ms = init_stage.complete("cpa.init");
  if (phases != nullptr) phases->add(kPhaseOther, init_ms);

  // 2S x 2S search rectangle centred on each SP (paper Section 2): +/- S.
  const int window = std::max(1, static_cast<int>(std::lround(spacing)));
  double callback_ms_total = 0.0;

  for (int iter = 0; iter < params_.max_iterations; ++iter) {
    SSLIC_TRACE_SCOPE("cpa.iter", iter);
    Stopwatch iter_watch;
    IterationStats stats;
    stats.iteration = iter;

    // --- Assignment: scan each active center's 2Sx2S window. ---
    trace::Interval iter_stages;  // assignment, then center update
    if (!subsampled) {
      // Full SLIC resets the minimum-distance plane every iteration. The
      // fused path folds the reset into each band's sweep (same writes,
      // one less full-image pass); the traffic charge is identical.
      if (!fused) {
        parallel_for(0, static_cast<std::int64_t>(n),
                     [&](std::int64_t lo, std::int64_t hi) {
                       std::fill(min_dist.begin() + lo, min_dist.begin() + hi,
                                 std::numeric_limits<double>::infinity());
                     });
      }
      instr.traffic.distance_write += n * MemTraffic::kDistanceBytes;
    }

    // Serial prelude over the K centers: activity flags, clamped windows,
    // and the full instrumentation for this iteration. Op/traffic counts
    // are derived analytically from the window geometry — (x1-x0+1)*
    // (y1-y0+1) pixels per window under the streaming-writeback convention
    // (see instrumentation.h) — so the hot loop below carries no counter
    // updates at all, and the totals stay exact regardless of how the rows
    // are split across worker threads.
    const int active_subset = schedule.active_subset(iter);
    for (std::size_t ci = 0; ci < result.centers.size(); ++ci) {
      const bool is_active =
          !subsampled || static_cast<int>(ci) % schedule.count() == active_subset;
      active[ci] = is_active ? 1 : 0;
      if (!is_active) continue;

      const ClusterCenter& c = result.centers[ci];
      const int cx = static_cast<int>(std::lround(c.x));
      const int cy = static_cast<int>(std::lround(c.y));
      ScanWindow& win = windows[ci];
      win.x0 = std::max(0, cx - window);
      win.x1 = std::min(w - 1, cx + window);
      win.y0 = std::max(0, cy - window);
      win.y1 = std::min(h - 1, cy + window);

      const std::uint64_t wpix = win.pixels();
      instr.ops.distance_evals += wpix;
      instr.ops.compare_ops += wpix;
      stats.pixels_visited += wpix;
      // Every covering window streams the pixel's Lab, distance, and label
      // entries again.
      instr.traffic.center_read += MemTraffic::kCenterBytes;
      instr.traffic.image_read += wpix * MemTraffic::kLabBytes;
      instr.traffic.distance_read += wpix * MemTraffic::kDistanceBytes;
      instr.traffic.distance_write += wpix * MemTraffic::kDistanceBytes;
      instr.traffic.label_write += wpix * MemTraffic::kLabelBytes;
    }

    // Row-band tiling: each band owns a disjoint range of rows and scans
    // the row-intersection of every active window with its band. A pixel
    // is owned by exactly one band and sees its candidate centers in the
    // same ascending-index order as the serial loop, so labels (including
    // tie-breaks, which favour the lower index) are identical for every
    // band partition and thread count. No locks or atomics are needed on
    // the pixel arrays.
    std::int32_t* labels_ptr = result.labels.pixels().data();
    const auto scan_band = [&](int ylo, int yhi) {
      for (std::size_t ci = 0; ci < result.centers.size(); ++ci) {
        if (active[ci] == 0) continue;
        const ScanWindow& win = windows[ci];
        const int y0 = std::max(win.y0, ylo);
        const int y1 = std::min(win.y1, yhi - 1);
        if (y0 > y1) continue;
        SSLIC_TRACE_SCOPE_AT(1, "cpa.assign.center",
                             static_cast<std::int64_t>(ci));
        const ClusterCenter& c = result.centers[ci];
        const kernels::CenterOperand op{c.L, c.a, c.b, c.x, c.y,
                                        static_cast<std::int32_t>(ci)};
        const std::int32_t count = win.x1 - win.x0 + 1;
        for (int y = y0; y <= y1; ++y) {
          SSLIC_TRACE_SCOPE_AT(2, "cpa.kernel.row", y);
          const std::size_t off =
              static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
              static_cast<std::size_t>(win.x0);
          kt.assign_center_row(planes.L.data() + off, planes.a.data() + off,
                               planes.b.data() + off, win.x0, count,
                               static_cast<double>(y), op, spatial_weight,
                               min_dist.data() + off, labels_ptr + off);
        }
      }
    };

    bool fused_sigmas_merged = false;
    if (!fused) {
      parallel_for(0, h, [&](std::int64_t ylo, std::int64_t yhi) {
        SSLIC_TRACE_SCOPE("cpa.assign.band", ylo);
        scan_band(static_cast<int>(ylo), static_cast<int>(yhi));
      });
    } else {
      // Fused band sweep: reset (full SLIC), assign, then immediately
      // accumulate this band's sigma partials — after the ascending-index
      // center scan every pixel of the band holds its final label for this
      // iteration, so the accumulation is legal band-locally and the Lab
      // rows are still warm in cache. One full-image pass instead of three.
      const auto band_body = [&](std::size_t band, std::vector<Sigma>& pool) {
        const auto [blo, bhi] = detail::chunk_bounds(0, h, bands, band);
        if (blo >= bhi) return;
        SSLIC_TRACE_SCOPE("cpa.assign.band", blo);
        const int ylo = static_cast<int>(blo);
        const int yhi = static_cast<int>(bhi);
        if (!subsampled) {
          const auto begin = static_cast<std::size_t>(ylo) * static_cast<std::size_t>(w);
          const auto end = static_cast<std::size_t>(yhi) * static_cast<std::size_t>(w);
          std::fill(min_dist.begin() + static_cast<std::ptrdiff_t>(begin),
                    min_dist.begin() + static_cast<std::ptrdiff_t>(end),
                    std::numeric_limits<double>::infinity());
        }
        scan_band(ylo, yhi);
        SSLIC_TRACE_SCOPE_AT(1, "cpa.band_accumulate",
                             static_cast<std::int64_t>(band));
        pool.assign(num_centers_z, Sigma{});
        for (int y = ylo; y < yhi; ++y) {
          const std::size_t off =
              static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
          kt.accumulate_row(planes.L.data() + off, planes.a.data() + off,
                            planes.b.data() + off, 0, w, y, labels_ptr + off,
                            pool.data());
        }
      };
      ThreadPool& pool = ThreadPool::global();
      if (pool.threads() <= 1 || bands <= 1 || ThreadPool::in_parallel_region()) {
        // Serial sweep: one pool serves every band, folded into the totals
        // as soon as its band completes. The per-band partial values and
        // the ascending merge order are exactly those of the parallel
        // per-band pools — bit-identical results — but the single K-sigma
        // partial stays cache-resident across all bands instead of
        // streaming bands * K sigmas through memory every iteration.
        std::vector<Sigma>& band_pool = scratch.band_sigmas[0];
        for (std::size_t band = 0; band < bands; ++band) {
          band_body(band, band_pool);
          // Seed by copy, then fold — the same chain as the merge below
          // (bands = min(kReduceChunks, h) so no band is ever empty).
          if (band == 0) {
            sigmas = band_pool;
          } else {
            merge_sigmas(sigmas, band_pool);
          }
        }
        fused_sigmas_merged = true;
      } else {
        pool.run_chunks(bands, [&](std::size_t band) {
          band_body(band, scratch.band_sigmas[band]);
        });
      }
    }
    const double assign_ms = iter_stages.complete("cpa.assign", iter);
    if (phases != nullptr) phases->add(kPhaseDistanceMin, assign_ms);

    // --- Center update: merge sigma partials, then divide. ---
    // Either path merges per-band partials in ascending band order with
    // band boundaries fixed by the image height (parallel_reduce uses the
    // same kReduceChunks budget), so the floating-point reduction tree —
    // and hence every center, bit for bit — is the same at any thread
    // count, fused or not.
    if (!fused) {
      sigmas = parallel_reduce<std::vector<Sigma>>(
          0, h,
          [&](std::vector<Sigma>& partial, std::int64_t ylo, std::int64_t yhi) {
            partial.assign(num_centers_z, Sigma{});
            for (int y = static_cast<int>(ylo); y < static_cast<int>(yhi); ++y) {
              for (int x = 0; x < w; ++x) {
                const auto label = static_cast<std::size_t>(result.labels(x, y));
                partial[label].add(lab(x, y), x, y);
              }
            }
          },
          [&](std::vector<Sigma>& into, std::vector<Sigma>&& from) {
            if (from.empty()) return;
            if (into.empty()) {
              into = std::move(from);
              return;
            }
            merge_sigmas(into, from);
          });
      // Two-pass accounting: the standalone sigma pass re-reads the whole
      // image and label plane from DRAM. The fused path inherits both
      // streams from the assignment pass, so it drops these two charges —
      // the ~n*16 B/iteration the ISSUE's motivation cites.
      instr.traffic.image_read += n * MemTraffic::kLabBytes;
      instr.traffic.label_read += n * MemTraffic::kLabelBytes;
    } else if (!fused_sigmas_merged) {
      // Parallel fused sweep left one partial pool per band. The first
      // band's pool seeds the totals by value copy (mirroring the reduce
      // merge's move-from-empty), the rest fold in ascending order.
      sigmas = scratch.band_sigmas[0];
      for (std::size_t band = 1; band < bands; ++band)
        merge_sigmas(sigmas, scratch.band_sigmas[band]);
    }
    instr.ops.accumulate_ops += 6 * n;

    stats.center_movement = update_centers(result.centers, sigmas,
                                           subsampled ? active
                                                      : std::vector<std::uint8_t>{},
                                           &instr.ops);
    instr.traffic.center_write +=
        static_cast<std::uint64_t>(num_centers) * MemTraffic::kCenterBytes;
    const double update_ms = iter_stages.complete(
        fused ? "cpa.fused_accumulate" : "cpa.update", iter);
    if (phases != nullptr) phases->add(kPhaseCenterUpdate, update_ms);

    instr.iterations += 1;
    result.iterations_run = iter + 1;
    stats.elapsed_ms = iter_watch.elapsed_ms();
    result.trace.push_back(stats);

    if (callback) {
      Stopwatch cb_watch;
      callback(stats, result.labels, result.centers);
      callback_ms_total += cb_watch.elapsed_ms();
    }
    if (params_.convergence_threshold > 0.0 &&
        stats.center_movement < params_.convergence_threshold &&
        iter + 1 >= schedule.count()) {
      break;  // every subset has been visited at least once
    }
  }
  (void)callback_ms_total;  // callbacks are excluded from phase totals by design

  if (params_.enforce_connectivity) {
    trace::Interval connectivity_stage;
    const ConnectivityResult connectivity = enforce_connectivity(
        result.labels, params_.num_superpixels, &scratch.connectivity);
    instr.final_label_count =
        static_cast<std::uint64_t>(connectivity.final_label_count);
    instr.pixels_relabelled = connectivity.pixels_moved;
    const double connectivity_ms =
        connectivity_stage.complete("cpa.connectivity");
    if (phases != nullptr) phases->add(kPhaseConnectivity, connectivity_ms);
  }
}

}  // namespace sslic
