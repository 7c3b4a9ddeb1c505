#include "slic/subsampled.h"

#include <algorithm>
#include <array>
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

double update_ppa_centers(const std::vector<Sigma>& sigmas,
                          const DistanceCalculator& dist,
                          const SlicParams& params,
                          std::vector<ClusterCenter>& centers,
                          std::vector<std::uint8_t>& calm_streak,
                          std::vector<std::uint8_t>& frozen,
                          Instrumentation& instr) {
  double movement_sum = 0.0;
  std::size_t updated = 0;
  for (std::size_t ci = 0; ci < centers.size(); ++ci) {
    const Sigma& s = sigmas[ci];
    if (s.count == 0) continue;
    const double inv = 1.0 / static_cast<double>(s.count);
    ClusterCenter next{s.L * inv, s.a * inv, s.b * inv, s.x * inv, s.y * inv};
    dist.quantize_center(next);
    const double moved =
        std::abs(next.x - centers[ci].x) + std::abs(next.y - centers[ci].y);
    movement_sum += moved;
    ++updated;
    centers[ci] = next;
    instr.ops.divide_ops += 5;

    if (params.preemptive) {
      if (moved < params.freeze_threshold) {
        if (calm_streak[ci] < 255) calm_streak[ci] += 1;
        if (calm_streak[ci] >= 2) frozen[ci] = 1;
      } else {
        calm_streak[ci] = 0;
        frozen[ci] = 0;
      }
    }
  }
  instr.traffic.center_write +=
      static_cast<std::uint64_t>(centers.size()) * MemTraffic::kCenterBytes;
  return updated == 0 ? 0.0 : movement_sum / static_cast<double>(updated);
}

void PpaSlic::segment_impl(const LabImage& lab,
                           const std::vector<ClusterCenter>* warm_centers,
                           Segmentation& result, IterationScratch& scratch,
                           const IterationCallback& callback,
                           Instrumentation* instrumentation,
                           PhaseTimer* phases) const {
  SSLIC_CHECK(!lab.empty());
  SSLIC_TRACE_SCOPE("ppa.segment");
  const int w = lab.width();
  const int h = lab.height();
  const std::size_t n = lab.size();

  Instrumentation local_instr;
  Instrumentation& instr = instrumentation != nullptr ? *instrumentation : local_instr;
  instr = Instrumentation{};
  instr.warm = warm_centers != nullptr;

  // One clock per stage: each Interval::complete() below ends a stage and
  // feeds the same measurement to its span and to its PhaseTimer phase.
  trace::Interval init_stage;
  const CenterGrid grid(w, h, params_.num_superpixels);
  const DistanceCalculator dist(params_.compactness, grid.spacing(), data_width_);
  const SubsetSchedule schedule =
      SubsetSchedule::from_ratio(params_.subsample_ratio, params_.subset_pattern);
  const int nx = grid.nx();
  const int ny = grid.ny();
  const auto num_centers_z = static_cast<std::size_t>(grid.num_centers());

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
    SSLIC_CHECK_MSG(warm_centers->size() == num_centers_z,
                    "warm start has " << warm_centers->size()
                                      << " centers, grid needs "
                                      << num_centers_z);
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

  // Pool phases: one assignment chunk per tile stripe, one accumulation
  // band per pool thread (clamped to the stripe count). On a one-thread
  // pool, or nested inside another parallel region (the engine's
  // multi-frame batches), the same code runs serially with one band. The
  // band tallies are sized for the pool either way, so a stream whose
  // frames alternate between the two paths never reallocates them.
  ThreadPool& pool = ThreadPool::global();
  const bool parallel =
      pool.threads() > 1 && !ThreadPool::in_parallel_region();
  const auto stripes = static_cast<std::size_t>(ny);
  const std::size_t pool_bands =
      std::min(static_cast<std::size_t>(pool.threads()), stripes);
  const std::size_t bands = parallel ? pool_bands : 1;
  const auto run_phase = [&](std::size_t chunks, ChunkFn body) {
    if (parallel) {
      pool.run_chunks(chunks, body);
    } else {
      for (std::size_t c = 0; c < chunks; ++c) body(c);
    }
  };

  std::vector<std::uint8_t>& row_active = scratch.row_active;
  row_active.assign(stripes * static_cast<std::size_t>(w), 0);
  std::vector<StripeTally>& stripe_tallies = scratch.stripe_tallies;
  stripe_tallies.assign(stripes, StripeTally{});
  std::vector<std::uint64_t>& band_accumulated = scratch.band_accumulated;
  band_accumulated.assign(pool_bands, 0);

  std::vector<Sigma>& sigmas = scratch.sigmas;
  sigmas.assign(num_centers_z, Sigma{});
  // Preemptive extension state.
  std::vector<std::uint8_t>& frozen = scratch.frozen;
  frozen.assign(num_centers_z, 0);
  std::vector<std::uint8_t>& calm_streak = scratch.calm_streak;
  calm_streak.assign(num_centers_z, 0);
  std::vector<std::uint8_t>& tile_skipped = scratch.tile_skipped;
  tile_skipped.assign(num_centers_z, 0);
  const double init_ms = init_stage.complete("ppa.init");
  if (phases != nullptr) phases->add(CpaSlic::kPhaseOther, init_ms);

  std::int32_t* const labels = result.labels.pixels().data();
  const bool all_active = schedule.count() == 1;
  const bool masked = !all_active || params_.preemptive;

  for (int iter = 0; iter < params_.max_iterations; ++iter) {
    SSLIC_TRACE_SCOPE("ppa.iter", iter);
    Stopwatch iter_watch;
    IterationStats stats;
    stats.iteration = iter;

    // --- Phase A: per-pixel assignment over the active subset. ---
    // A pixel's label and running minimum depend only on the previous
    // iteration's centers and its own entries, so any split of the tiles
    // gives the same bytes. A stripe writes only its own rows, its own
    // tiles' skip flags, its own mask slice and its own tally.
    trace::Interval iter_stages;  // assignment, then accumulation and update
    const auto assign_stripe = [&](std::size_t stripe) {
      const int gy = static_cast<int>(stripe);
      StripeTally& tally = stripe_tallies[stripe];
      tally = StripeTally{};
      std::uint8_t* const mask_row =
          row_active.data() + stripe * static_cast<std::size_t>(w);
      const int y0 = gy * h / ny;
      const int y1 = (gy + 1) * h / ny;
      for (int gx = 0; gx < nx; ++gx) {
        const std::int32_t tile = grid.center_index(gx, gy);
        SSLIC_TRACE_SCOPE_AT(1, "ppa.tile", tile);
        const CandidateList& cand = candidates[static_cast<std::size_t>(tile)];

        if (params_.preemptive) {
          const bool all_frozen =
              std::all_of(cand.begin(), cand.end(), [&](std::int32_t c) {
                return frozen[static_cast<std::size_t>(c)] != 0;
              });
          tile_skipped[static_cast<std::size_t>(tile)] = all_frozen ? 1 : 0;
          if (all_frozen) {
            tally.tiles_skipped += 1;
            continue;
          }
        }
        tally.tiles_assigned += 1;

        const int x0 = gx * w / nx;
        const int x1 = (gx + 1) * w / nx;
        // Candidate operands in list order — slot order is the tie-break,
        // exactly as the 9:1 minimum tree resolves ties to the lowest slot.
        std::array<kernels::CenterOperand, 9> cand_ops;
        for (std::size_t k = 0; k < cand.size(); ++k) {
          const ClusterCenter& cc =
              result.centers[static_cast<std::size_t>(cand[k])];
          cand_ops[k] = {cc.L, cc.a, cc.b, cc.x, cc.y, cand[k]};
        }
        const std::int32_t count = x1 - x0;
        for (int y = y0; y < y1; ++y) {
          const std::size_t off =
              static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
              static_cast<std::size_t>(x0);
          std::uint64_t visited = static_cast<std::uint64_t>(count);
          const std::uint8_t* mask = nullptr;
          if (!all_active) {
            // The row's active pixels are every step-th column from
            // `first`; start at the first one inside the tile.
            const SubsetSchedule::RowStride active =
                schedule.active_in_row(y, iter);
            int x = active.first;
            if (x < x0)
              x += (x0 - x + active.step - 1) / active.step * active.step;
            if (x >= x1) continue;
            std::fill(mask_row, mask_row + count, std::uint8_t{0});
            visited = 0;
            for (; x < x1; x += active.step) {
              mask_row[x - x0] = 1;
              visited += 1;
            }
            mask = mask_row;
          }
          SSLIC_TRACE_SCOPE_AT(2, "ppa.kernel.row", y);
          kt.assign_candidates_row(
              planes.L.data() + off, planes.a.data() + off,
              planes.b.data() + off, x0, count, static_cast<double>(y),
              cand_ops.data(), static_cast<std::int32_t>(cand.size()),
              spatial_weight, mask, min_dist.data() + off, labels + off);
          tally.pixels_visited += visited;
        }
      }
    };
    run_phase(stripes, assign_stripe);

    std::uint64_t tiles_assigned = 0;
    for (const StripeTally& tally : stripe_tallies) {
      stats.pixels_visited += tally.pixels_visited;
      instr.tiles_skipped += tally.tiles_skipped;
      tiles_assigned += tally.tiles_assigned;
    }
    // DRAM accounting convention (see instrumentation.h): each
    // assigned tile fetches its 9 candidate centers; per visited pixel
    // Lab(12)+candidates(18)+label r/w(8)+min-dist r/w(8), and every
    // visited pixel scans exactly the 9-candidate list (9 distance evals,
    // 8 running-min compares).
    instr.traffic.center_read += tiles_assigned * 9 * MemTraffic::kCenterBytes;
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
    const double assign_ms = iter_stages.complete("ppa.assign", iter);
    if (phases != nullptr) phases->add(CpaSlic::kPhaseDistanceMin, assign_ms);

    // --- Phase B: sigma accumulation, then the center update. ---
    // Band b owns center rows [r0, r1) and adds, in row-major order, only
    // the pixels labelled with its own centers, so every sigma receives
    // the serial loop's additions in the serial loop's order — for any
    // band count. Only pixels assigned this iteration are accumulated, and
    // one in stripe gy holds a label from its tile's candidate list — a
    // center in rows gy-1..gy+1 — so the band only scans stripes r0-1..r1,
    // at most two more than it owns. The hardware's cluster update unit
    // accumulates from tile-resident data, so this adds no DRAM traffic;
    // it is charged to the center-update phase, as in the paper's Table-1
    // accounting.
    const auto accumulate_band = [&](std::size_t band) {
      SSLIC_TRACE_SCOPE_AT(1, "ppa.accumulate", static_cast<std::int64_t>(band));
      const auto [r0, r1] = detail::chunk_bounds(0, ny, bands, band);
      const auto lo = static_cast<std::int32_t>(r0 * nx);
      const auto owned_count = static_cast<std::uint32_t>((r1 - r0) * nx);
      const auto owned = [lo, owned_count](std::int32_t label) {
        return static_cast<std::uint32_t>(label - lo) < owned_count;
      };
      std::fill(sigmas.begin() + lo, sigmas.begin() + lo + owned_count,
                Sigma{});
      const int y_begin = static_cast<int>(std::max<std::int64_t>(0, r0 - 1)) *
                          h / ny;
      const int y_end =
          (static_cast<int>(std::min<std::int64_t>(ny - 1, r1)) + 1) * h / ny;
      std::uint64_t accumulated = 0;
      for (int y = y_begin; y < y_end; ++y) {
        const std::size_t row =
            static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
        const std::int32_t* row_labels = labels + row;
        if (!masked) {
          // Every pixel contributes: each maximal run of owned labels goes
          // through the SIMD scatter kernel (bit-equal to the scalar loop;
          // see assign_kernels.h).
          int x = 0;
          while (x < w) {
            while (x < w && !owned(row_labels[x])) ++x;
            int run_end = x;
            while (run_end < w && owned(row_labels[run_end])) ++run_end;
            if (run_end > x) {
              kt.accumulate_row(planes.L.data() + row + x,
                                planes.a.data() + row + x,
                                planes.b.data() + row + x, x, run_end - x, y,
                                row_labels + x, sigmas.data());
              accumulated += static_cast<std::uint64_t>(run_end - x);
            }
            x = run_end;
          }
          continue;
        }
        // Masked path: inactive subset members and the tiles the
        // preemptive extension skipped this iteration contribute nothing.
        // Tiles are looked up by the assignment partition, so exactly the
        // pixels phase A assigned are accumulated.
        const int gy = grid.tile_row(y);
        const SubsetSchedule::RowStride active =
            schedule.active_in_row(y, iter);
        for (int x = active.first; x < w; x += active.step) {
          if (params_.preemptive &&
              tile_skipped[static_cast<std::size_t>(
                  grid.center_index(grid.tile_column(x), gy))] != 0) {
            continue;
          }
          const std::int32_t label = row_labels[x];
          if (!owned(label)) continue;
          sigmas[static_cast<std::size_t>(label)].add(
              stored.pixels()[row + static_cast<std::size_t>(x)], x, y);
          accumulated += 1;
        }
      }
      band_accumulated[band] = accumulated;
    };
    run_phase(bands, accumulate_band);

    std::uint64_t accumulated = 0;
    for (const std::uint64_t band_count : band_accumulated)
      accumulated += band_count;
    // Guards the band ownership argument: a pixel that no band owned, or
    // that two bands summed, breaks the equality.
    SSLIC_CHECK_MSG(accumulated == stats.pixels_visited,
                    "PPA accumulated " << accumulated << " pixels but assigned "
                                       << stats.pixels_visited);
    instr.ops.accumulate_ops += 6 * accumulated;
    stats.center_movement = update_ppa_centers(
        sigmas, dist, params_, result.centers, calm_streak, frozen, instr);
    const double update_ms = iter_stages.complete("ppa.update", iter);
    if (phases != nullptr) phases->add(CpaSlic::kPhaseCenterUpdate, update_ms);

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
    trace::Interval connectivity_stage;
    const ConnectivityResult connectivity = enforce_connectivity(
        result.labels, params_.num_superpixels, &scratch.connectivity);
    instr.final_label_count =
        static_cast<std::uint64_t>(connectivity.final_label_count);
    instr.pixels_relabelled = connectivity.pixels_moved;
    const double connectivity_ms =
        connectivity_stage.complete("ppa.connectivity");
    if (phases != nullptr)
      phases->add(CpaSlic::kPhaseConnectivity, connectivity_ms);
  }
}

}  // namespace sslic
