#include "slic/iteration.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>

#include "common/check.h"
#include "common/thread_pool.h"
#include "slic/assign_kernels.h"
#include "slic/center_update.h"
#include "slic/grid.h"
#include "slic/subset_schedule.h"

namespace sslic {
namespace {

/// Runs a run's pool phases: on the global pool when it has more than one
/// thread and this call is not already inside a parallel region (the
/// engine's multi-frame batches), inline in chunk order otherwise. The
/// bytes are the same either way.
class Phases {
 public:
  Phases()
      : pool_(ThreadPool::global()),
        parallel_(pool_.threads() > 1 && !ThreadPool::in_parallel_region()) {}

  [[nodiscard]] bool parallel() const { return parallel_; }
  [[nodiscard]] std::size_t threads() const {
    return static_cast<std::size_t>(pool_.threads());
  }
  /// Per-thread scratch: how many slices, and which one this chunk owns.
  [[nodiscard]] std::size_t slots() const { return parallel_ ? threads() : 1; }
  [[nodiscard]] std::size_t slot() const {
    return parallel_ ? ThreadPool::current_slot() : 0;
  }

  void run(std::size_t chunks, ChunkFn body) const {
    if (parallel_) {
      pool_.run_chunks(chunks, body);
    } else {
      for (std::size_t c = 0; c < chunks; ++c) body(c);
    }
  }

 private:
  ThreadPool& pool_;
  bool parallel_;
};

/// Index of the half-open interval of `edges` that holds `v`.
int interval_of(const std::vector<int>& edges, int v) {
  return static_cast<int>(std::upper_bound(edges.begin(), edges.end(), v) -
                          edges.begin()) -
         1;
}

/// Fills `edges` with a tile grid's cut points over [0, extent).
void tile_edges(std::vector<int>& edges, int extent, int tile) {
  edges.clear();
  for (int v = 0; v < extent; v += tile) edges.push_back(v);
  edges.push_back(extent);
}

/// The region grid of one run, over the edges in the scratch.
struct Regions {
  const std::vector<int>& xs;
  const std::vector<int>& ys;

  [[nodiscard]] std::size_t cols() const { return xs.size() - 1; }
  [[nodiscard]] std::size_t rows() const { return ys.size() - 1; }
  [[nodiscard]] std::size_t count() const { return cols() * rows(); }
  [[nodiscard]] std::size_t max_area() const {
    int width = 0;
    int height = 0;
    for (std::size_t c = 0; c < cols(); ++c)
      width = std::max(width, xs[c + 1] - xs[c]);
    for (std::size_t r = 0; r < rows(); ++r)
      height = std::max(height, ys[r + 1] - ys[r]);
    return static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  }
};

/// Counts the regions of each region row still running, so the last one
/// to finish can release the row band (out-of-core runs only: a null
/// counter when the view has no release hook).
class RowCountdown {
 public:
  RowCountdown(const PlaneView& planes, const Regions& regions)
      : planes_(planes), regions_(regions) {
    if (planes.release != nullptr)
      remaining_ = std::make_unique<std::atomic<std::size_t>[]>(regions.rows());
  }

  void reset() {
    if (!remaining_) return;
    for (std::size_t r = 0; r < regions_.rows(); ++r)
      remaining_[r].store(regions_.cols(), std::memory_order_relaxed);
  }

  void region_done(std::size_t row) {
    if (remaining_ &&
        remaining_[row].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      planes_.release_rows(regions_.ys[row], regions_.ys[row + 1]);
    }
  }

 private:
  const PlaneView& planes_;
  const Regions& regions_;
  std::unique_ptr<std::atomic<std::size_t>[]> remaining_;
};

/// Subsampled CPA keeps the min-distance plane across iterations, so it
/// starts at each pixel's distance to its initially-assigned center.
void seed_min_dist(const PlaneView& planes, const DistanceCalculator& dist,
                   const std::vector<ClusterCenter>& centers) {
  parallel_for(0, planes.height, [&](std::int64_t ylo, std::int64_t yhi) {
    int released = static_cast<int>(ylo);
    for (int y = static_cast<int>(ylo); y < static_cast<int>(yhi); ++y) {
      for (int x = 0; x < planes.width; ++x) {
        const std::size_t f = planes.offset(x, y);
        const auto label = static_cast<std::size_t>(planes.labels[f]);
        planes.min_dist[f] = dist.squared(planes.lab(f), x, y, centers[label]);
      }
      planes.release_behind(released, y + 1);
    }
    planes.release_rows(released, static_cast<int>(yhi));
  });
}

/// The PPA center update: every center with a non-empty sigma becomes its
/// mean, stored at `dist`'s data width. With `params.preemptive`, a center
/// freezes after two consecutive moves below `params.freeze_threshold` and
/// thaws on any larger move. Returns the mean L1 (x, y) movement of the
/// updated centers (0 when none).
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

}  // namespace

PlaneView PlaneView::of(const LabImage& lab, std::int32_t* labels,
                        double* min_dist) {
  PlaneView view;
  view.width = lab.width();
  view.height = lab.height();
  view.L = lab.L.data();
  view.a = lab.a.data();
  view.b = lab.b.data();
  view.labels = labels;
  view.min_dist = min_dist;
  return view;
}

void fill_initial_labels(const CenterGrid& grid, const PlaneView& planes) {
  SSLIC_CHECK(planes.width == grid.width() && planes.height == grid.height());
  const int w = planes.width;
  // Row 0 holds each column's cell index; since center_index(gx, gy) is
  // gy*nx + gx, every other row is row 0 plus its cell row's offset. One
  // cell_x division per column instead of one per pixel.
  std::int32_t* const first = planes.labels;
  for (int x = 0; x < w; ++x) first[x] = grid.center_index(grid.cell_x(x), 0);
  parallel_for(1, planes.height, [&](std::int64_t ylo, std::int64_t yhi) {
    // Release inside the chunk, not per chunk: with few threads a chunk
    // can be the whole plane, and waiting until its end would leave every
    // page dirty-resident at once.
    int released = static_cast<int>(ylo);
    for (int y = static_cast<int>(ylo); y < static_cast<int>(yhi); ++y) {
      const std::int32_t offset = grid.center_index(0, grid.cell_y(y));
      std::int32_t* const row = first + planes.offset(0, y);
      for (int x = 0; x < w; ++x) row[x] = first[x] + offset;
      planes.release_behind(released, y + 1);
    }
    planes.release_rows(released, static_cast<int>(yhi));
  });
  planes.release_rows(0, 1);
}

void run_cpa(const PlaneView& planes, const RegionGrid& regions,
             const SlicParams& params, bool fused,
             trace::Interval& init_stage, Segmentation& result,
             IterationScratch& scratch, Instrumentation& instr,
             const IterationCallback& callback) {
  const int w = planes.width;
  const int h = planes.height;
  const std::size_t n = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
  const CenterGrid grid(w, h, params.num_superpixels);
  const double spacing = grid.spacing();
  const DistanceCalculator dist(params.compactness, spacing);
  const SubsetSchedule schedule =
      SubsetSchedule::from_ratio(params.subsample_ratio);
  const bool subsampled = schedule.count() > 1;
  const auto num_centers = static_cast<std::size_t>(grid.num_centers());
  SSLIC_CHECK(subsampled == (planes.min_dist != nullptr));
  SSLIC_CHECK(!fused || regions.tile_width <= 0);

  seed_centers(grid, planes, params.perturb_centers, result.centers);
  fill_initial_labels(grid, planes);
  if (subsampled) {
    seed_min_dist(planes, dist, result.centers);
    instr.ops.distance_evals += n;
  }
  result.iterations_run = 0;
  result.trace.clear();
  result.trace.reserve(static_cast<std::size_t>(params.max_iterations));

  // Sigma reduction bands: a fixed budget split by the image height alone,
  // never by the regions or the thread count, so the floating-point
  // reduction tree is the same for every run of this image.
  const std::size_t bands =
      std::min<std::size_t>(detail::kReduceChunks, static_cast<std::size_t>(h));
  std::vector<int>& band_y = scratch.band_y;
  band_y.resize(bands + 1);
  for (std::size_t b = 0; b < bands; ++b)
    band_y[b] = static_cast<int>(detail::chunk_bounds(0, h, bands, b).first);
  band_y[bands] = h;
  if (regions.tile_width > 0) {
    tile_edges(scratch.region_x, w, regions.tile_width);
    tile_edges(scratch.region_y, h, regions.tile_height);
  } else {
    scratch.region_x.assign({0, w});
    scratch.region_y.assign(band_y.begin(), band_y.end());
  }
  const Regions rg{scratch.region_x, scratch.region_y};

  // A band's labels start as the grid cells its rows cross (row-major cell
  // indices, so the first and last pixel bound them).
  scratch.band_lo.resize(bands);
  scratch.band_hi.resize(bands);
  scratch.band_offset.resize(bands);
  for (std::size_t b = 0; b < bands; ++b) {
    scratch.band_lo[b] = grid.center_index(grid.cell_x(0), grid.cell_y(band_y[b]));
    scratch.band_hi[b] =
        grid.center_index(grid.cell_x(w - 1), grid.cell_y(band_y[b + 1] - 1));
  }

  std::vector<Sigma>& sigmas = scratch.sigmas;
  sigmas.resize(num_centers);
  std::vector<std::uint8_t>& active = scratch.active;
  active.assign(num_centers, 1);
  std::vector<ScanWindow>& windows = scratch.windows;
  windows.resize(num_centers);
  scratch.bucket_offsets.resize(rg.count() + 1);

  // Full SLIC resets the running minima every iteration, so they live in a
  // region-sized slice per pool thread instead of an image-sized plane.
  const Phases phases;
  const std::size_t slice = subsampled ? 0 : rg.max_area();
  scratch.region_min_dist.resize(phases.slots() * slice);
  RowCountdown countdown(planes, rg);

  // The resolved kernel table is fetched once — dispatch never runs inside
  // the pixel loops.
  const kernels::KernelTable& kt = kernels::active();
  const double spatial_weight = dist.spatial_weight();
  instr.init_ms += init_stage.complete("cpa.init");

  // 2S x 2S search rectangle centred on each SP (paper Section 2): +/- S.
  const int window = std::max(1, static_cast<int>(std::lround(spacing)));

  // One band's sigma partial over only its label range [lo, hi], rebased so
  // the kernel's sigmas[label] indexing lands inside it. Every pixel of the
  // band holds its final label for this iteration when this runs.
  const auto accumulate_band = [&](std::size_t band) {
    SSLIC_TRACE_SCOPE_AT(1, "cpa.band_accumulate", static_cast<std::int64_t>(band));
    const std::int32_t lo = scratch.band_lo[band];
    const std::size_t offset = scratch.band_offset[band];
    Sigma* const base =
        scratch.band_partials.data() + (offset - static_cast<std::size_t>(lo));
    std::fill(base + lo, base + scratch.band_hi[band] + 1, Sigma{});
    const int ylo = band_y[band];
    const int yhi = band_y[band + 1];
    int released = ylo;
    for (int y = ylo; y < yhi; ++y) {
      const std::size_t off = planes.offset(0, y);
      kt.accumulate_row(planes.L + off, planes.a + off, planes.b + off, 0, w, y,
                        planes.labels + off, base);
      planes.release_behind(released, y + 1);
    }
    planes.release_rows(released, yhi);
  };

  for (int iter = 0; iter < params.max_iterations; ++iter) {
    SSLIC_TRACE_SCOPE("cpa.iter", iter);
    IterationStats stats;
    stats.iteration = iter;

    trace::Interval iter_stages;  // assignment, then center update
    // Full SLIC's per-iteration min-distance reset, charged as the plane
    // write it models (the region slices take it over).
    if (!subsampled) instr.traffic.distance_write += n * MemTraffic::kDistanceBytes;

    // Serial prelude over the K centers: activity flags, clamped windows,
    // and the full instrumentation for this iteration. Op/traffic counts
    // are derived analytically from the window geometry — (x1-x0+1)*
    // (y1-y0+1) pixels per window under the streaming-writeback convention
    // (see instrumentation.h) — so the hot loop below carries no counter
    // updates at all, and the totals stay exact regardless of how the rows
    // are split across worker threads.
    const int active_subset = schedule.active_subset(iter);
    for (std::size_t ci = 0; ci < num_centers; ++ci) {
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

    // Bucket the active centers by the regions their windows intersect, in
    // ascending index order, which every region's drain order below
    // inherits (a CSR count, prefix sum and fill). A window may spread its
    // label to any band it reaches, so each such band's label range widens
    // to include it (ranges only grow: subsampled CPA keeps the labels of
    // inactive centers).
    const auto for_each_region = [&](const ScanWindow& win, auto&& fn) {
      const int c0 = interval_of(rg.xs, win.x0);
      const int c1 = interval_of(rg.xs, win.x1);
      const int r1 = interval_of(rg.ys, win.y1);
      for (int r = interval_of(rg.ys, win.y0); r <= r1; ++r) {
        for (int c = c0; c <= c1; ++c)
          fn(static_cast<std::size_t>(r) * rg.cols() + static_cast<std::size_t>(c));
      }
    };
    std::vector<std::size_t>& offsets = scratch.bucket_offsets;
    std::fill(offsets.begin(), offsets.end(), 0);
    std::uint64_t halo = 0;
    for (std::size_t ci = 0; ci < num_centers; ++ci) {
      if (active[ci] == 0) continue;
      std::uint64_t regions_covered = 0;
      for_each_region(windows[ci], [&](std::size_t region) {
        offsets[region + 1] += 1;
        regions_covered += 1;
      });
      halo += (regions_covered - 1) * MemTraffic::kCenterBytes;
      const auto index = static_cast<std::int32_t>(ci);
      const int b1 = interval_of(band_y, windows[ci].y1);
      for (int b = interval_of(band_y, windows[ci].y0); b <= b1; ++b) {
        const auto bz = static_cast<std::size_t>(b);
        scratch.band_lo[bz] = std::min(scratch.band_lo[bz], index);
        scratch.band_hi[bz] = std::max(scratch.band_hi[bz], index);
      }
    }
    for (std::size_t r = 0; r < rg.count(); ++r) offsets[r + 1] += offsets[r];
    scratch.bucket_centers.resize(offsets[rg.count()]);
    for (std::size_t ci = 0; ci < num_centers; ++ci) {
      if (active[ci] == 0) continue;
      for_each_region(windows[ci], [&](std::size_t region) {
        scratch.bucket_centers[offsets[region]++] = static_cast<std::int32_t>(ci);
      });
    }
    // The fill advanced each region's start to its end: shift back.
    for (std::size_t r = rg.count(); r > 0; --r) offsets[r] = offsets[r - 1];
    offsets[0] = 0;
    if (regions.halo_bytes != nullptr) {
      *regions.halo_bytes += halo;
      instr.traffic.center_read += halo;
    }

    // Lay the band partials out back to back, each starting at or after
    // its own lo, so a partial rebased by -lo never points before the
    // buffer: at most K + (sum of range sizes) entries, not bands * K.
    std::size_t partials_end = 0;
    for (std::size_t b = 0; b < bands; ++b) {
      scratch.band_offset[b] =
          std::max(partials_end, static_cast<std::size_t>(scratch.band_lo[b]));
      partials_end =
          scratch.band_offset[b] +
          static_cast<std::size_t>(scratch.band_hi[b] - scratch.band_lo[b]) + 1;
    }
    scratch.band_partials.resize(partials_end);

    // --- Assignment: each region drains its bucket. ---
    // A pixel is owned by exactly one region and sees its candidate centers
    // in ascending index order, so labels (including tie-breaks, which
    // favour the lower index) are identical for every region grid and
    // thread count. No locks or atomics are needed on the pixel arrays.
    // The fused sweep accumulates each band right after assigning it, while
    // its rows are still warm in cache.
    countdown.reset();
    const auto assign_region = [&](std::size_t region) {
      const std::size_t row = region / rg.cols();
      const std::size_t col = region % rg.cols();
      const int rx0 = rg.xs[col];
      const int rx1 = rg.xs[col + 1];
      const int ry0 = rg.ys[row];
      const int ry1 = rg.ys[row + 1];
      SSLIC_TRACE_SCOPE("cpa.assign.region", static_cast<std::int64_t>(region));
      const auto stride = static_cast<std::size_t>(rx1 - rx0);
      double* local = nullptr;
      if (!subsampled) {
        local = scratch.region_min_dist.data() + phases.slot() * slice;
        std::fill(local, local + stride * static_cast<std::size_t>(ry1 - ry0),
                  std::numeric_limits<double>::infinity());
      }
      for (std::size_t k = offsets[region]; k < offsets[region + 1]; ++k) {
        const std::int32_t ci = scratch.bucket_centers[k];
        const ScanWindow& win = windows[static_cast<std::size_t>(ci)];
        const int x0 = std::max(win.x0, rx0);
        const int x1 = std::min(win.x1, rx1 - 1);
        const int y0 = std::max(win.y0, ry0);
        const int y1 = std::min(win.y1, ry1 - 1);
        SSLIC_TRACE_SCOPE_AT(1, "cpa.assign.center", static_cast<std::int64_t>(ci));
        const ClusterCenter& c = result.centers[static_cast<std::size_t>(ci)];
        const kernels::CenterOperand op{c.L, c.a, c.b, c.x, c.y, ci};
        const std::int32_t count = x1 - x0 + 1;
        for (int y = y0; y <= y1; ++y) {
          SSLIC_TRACE_SCOPE_AT(2, "cpa.kernel.row", y);
          const std::size_t off = planes.offset(x0, y);
          double* const md =
              subsampled ? planes.min_dist + off
                         : local + static_cast<std::size_t>(y - ry0) * stride +
                               static_cast<std::size_t>(x0 - rx0);
          kt.assign_center_row(planes.L + off, planes.a + off, planes.b + off,
                               x0, count, static_cast<double>(y), op,
                               spatial_weight, md, planes.labels + off);
        }
      }
      if (fused) accumulate_band(region);
      countdown.region_done(row);
    };
    phases.run(rg.count(), assign_region);
    const double assign_ms = iter_stages.complete("cpa.assign", iter);
    instr.assign_ms += assign_ms;

    // --- Center update: accumulate (two-pass), merge, then divide. ---
    if (!fused) {
      phases.run(bands, accumulate_band);
      // Two-pass accounting: the standalone sigma pass re-reads the whole
      // image and label plane from DRAM. The fused sweep inherits both
      // streams from the assignment pass, so it drops these two charges.
      instr.traffic.image_read += n * MemTraffic::kLabBytes;
      instr.traffic.label_read += n * MemTraffic::kLabelBytes;
    }
    // Fold the partials in ascending band order. Every partial entry starts
    // at +0.0, and a round-to-nearest sum seeded with +0.0 is never -0.0,
    // so an entry outside a band's range would add exactly +0.0 and leave
    // the total unchanged: folding only the ranges gives the bytes of
    // folding bands full-K partials.
    std::fill(sigmas.begin(), sigmas.end(), Sigma{});
    for (std::size_t b = 0; b < bands; ++b) {
      const std::int32_t lo = scratch.band_lo[b];
      const Sigma* const base =
          scratch.band_partials.data() +
          (scratch.band_offset[b] - static_cast<std::size_t>(lo));
      for (std::int32_t i = lo; i <= scratch.band_hi[b]; ++i)
        sigmas[static_cast<std::size_t>(i)] += base[i];
    }
    instr.ops.accumulate_ops += 6 * n;

    stats.center_movement = update_centers(result.centers, sigmas,
                                           subsampled ? active
                                                      : std::vector<std::uint8_t>{},
                                           &instr.ops);
    instr.traffic.center_write += num_centers * MemTraffic::kCenterBytes;
    const double update_ms =
        iter_stages.complete(fused ? "cpa.fused_accumulate" : "cpa.update", iter);
    instr.update_ms += update_ms;

    instr.iterations += 1;
    result.iterations_run = iter + 1;
    stats.elapsed_ms = assign_ms + update_ms;
    result.trace.push_back(stats);

    if (callback) callback(stats, result.labels, result.centers);
    if (params.convergence_threshold > 0.0 &&
        stats.center_movement < params.convergence_threshold &&
        iter + 1 >= schedule.count()) {
      break;  // every subset has been visited at least once
    }
  }
}

void run_ppa(const PlaneView& planes, const RegionGrid& regions,
             const SlicParams& params, const DistanceCalculator& dist,
             const std::vector<ClusterCenter>* warm_centers,
             trace::Interval& init_stage, Segmentation& result,
             IterationScratch& scratch, Instrumentation& instr,
             const IterationCallback& callback) {
  const int w = planes.width;
  const int h = planes.height;
  const CenterGrid grid(w, h, params.num_superpixels);
  const SubsetSchedule schedule =
      SubsetSchedule::from_ratio(params.subsample_ratio, params.subset_pattern);
  const int nx = grid.nx();
  const int ny = grid.ny();
  const auto num_centers = static_cast<std::size_t>(grid.num_centers());

  if (warm_centers != nullptr) {
    SSLIC_CHECK_MSG(warm_centers->size() == num_centers,
                    "warm start has " << warm_centers->size()
                                      << " centers, grid needs " << num_centers);
    result.centers.assign(warm_centers->begin(), warm_centers->end());
    for (auto& c : result.centers) {
      c.x = std::clamp(c.x, 0.0, static_cast<double>(w - 1));
      c.y = std::clamp(c.y, 0.0, static_cast<double>(h - 1));
    }
  } else {
    seed_centers(grid, planes, params.perturb_centers, result.centers);
  }
  for (auto& c : result.centers) dist.quantize_center(c);
  fill_initial_labels(grid, planes);
  result.iterations_run = 0;
  result.trace.clear();
  result.trace.reserve(static_cast<std::size_t>(params.max_iterations));

  const std::vector<CandidateList>& candidates = scratch.candidate_map(grid);
  const kernels::KernelTable& kt = kernels::active();
  const double spatial_weight = dist.spatial_weight();

  // Regions: the tile stripes (one per grid row of tiles) unless tiled.
  if (regions.tile_width > 0) {
    tile_edges(scratch.region_x, w, regions.tile_width);
    tile_edges(scratch.region_y, h, regions.tile_height);
  } else {
    scratch.region_x.assign({0, w});
    scratch.region_y.resize(static_cast<std::size_t>(ny) + 1);
    for (int gy = 0; gy <= ny; ++gy)
      scratch.region_y[static_cast<std::size_t>(gy)] = gy * h / ny;
  }
  const Regions rg{scratch.region_x, scratch.region_y};

  // Accumulation: one band per pool thread (clamped to the tile rows); one
  // band when the phases run inline. The band tallies are sized for the
  // pool either way, so a stream whose frames alternate between the two
  // never reallocates them.
  const Phases phases;
  const std::size_t pool_bands =
      std::min(phases.threads(), static_cast<std::size_t>(ny));
  const std::size_t bands = phases.parallel() ? pool_bands : 1;

  std::vector<std::uint8_t>& row_active = scratch.row_active;
  row_active.assign(rg.rows() * static_cast<std::size_t>(w), 0);
  std::vector<std::uint64_t>& region_visited = scratch.region_visited;
  region_visited.assign(rg.count(), 0);
  std::vector<std::uint64_t>& band_accumulated = scratch.band_accumulated;
  band_accumulated.assign(pool_bands, 0);

  std::vector<Sigma>& sigmas = scratch.sigmas;
  sigmas.assign(num_centers, Sigma{});
  // Preemptive extension state.
  std::vector<std::uint8_t>& frozen = scratch.frozen;
  frozen.assign(num_centers, 0);
  std::vector<std::uint8_t>& calm_streak = scratch.calm_streak;
  calm_streak.assign(num_centers, 0);
  std::vector<std::uint8_t>& tile_skipped = scratch.tile_skipped;
  tile_skipped.assign(num_centers, 0);
  RowCountdown countdown(planes, rg);
  instr.init_ms += init_stage.complete("ppa.init");

  std::int32_t* const labels = planes.labels;
  const bool all_active = schedule.count() == 1;
  const bool masked = !all_active || params.preemptive;

  for (int iter = 0; iter < params.max_iterations; ++iter) {
    SSLIC_TRACE_SCOPE("ppa.iter", iter);
    IterationStats stats;
    stats.iteration = iter;
    trace::Interval iter_stages;  // assignment, then accumulation and update

    // Serial pass over the tiles: preemptive skips, and the candidate
    // fetch charged once per assigned tile (plus, when tiled, once more per
    // extra region its rectangle spans).
    std::uint64_t tiles_assigned = 0;
    std::uint64_t halo = 0;
    for (int gy = 0; gy < ny; ++gy) {
      for (int gx = 0; gx < nx; ++gx) {
        const auto tile = static_cast<std::size_t>(grid.center_index(gx, gy));
        if (params.preemptive) {
          const CandidateList& cand = candidates[tile];
          const bool all_frozen =
              std::all_of(cand.begin(), cand.end(), [&](std::int32_t c) {
                return frozen[static_cast<std::size_t>(c)] != 0;
              });
          tile_skipped[tile] = all_frozen ? 1 : 0;
          if (all_frozen) {
            instr.tiles_skipped += 1;
            continue;
          }
        }
        tiles_assigned += 1;
        const int y0 = gy * h / ny;
        const int y1 = (gy + 1) * h / ny;
        const int x0 = gx * w / nx;
        const int x1 = (gx + 1) * w / nx;
        if (regions.halo_bytes != nullptr && y1 > y0 && x1 > x0) {
          const int spans =
              (interval_of(rg.ys, y1 - 1) - interval_of(rg.ys, y0) + 1) *
              (interval_of(rg.xs, x1 - 1) - interval_of(rg.xs, x0) + 1);
          halo += static_cast<std::uint64_t>(spans - 1) * 9 *
                  MemTraffic::kCenterBytes;
        }
      }
    }
    instr.traffic.center_read += tiles_assigned * 9 * MemTraffic::kCenterBytes;
    if (regions.halo_bytes != nullptr) {
      *regions.halo_bytes += halo;
      instr.traffic.center_read += halo;
    }

    // --- Phase A: per-pixel assignment over the active subset. ---
    // assign_candidates_row is per-pixel pure (a fresh best of 9), so a
    // pixel's label depends only on the previous iteration's centers and
    // any split of the tiles into regions gives the same bytes. A region
    // writes only its own pixels, its own mask slice and its own tally.
    countdown.reset();
    const auto assign_region = [&](std::size_t region) {
      const std::size_t row = region / rg.cols();
      const std::size_t col = region % rg.cols();
      const int rx0 = rg.xs[col];
      const int rx1 = rg.xs[col + 1];
      const int ry0 = rg.ys[row];
      const int ry1 = rg.ys[row + 1];
      std::uint8_t* const mask_row =
          row_active.data() + row * static_cast<std::size_t>(w) +
          static_cast<std::size_t>(rx0);
      std::uint64_t visited_total = 0;
      std::array<kernels::CenterOperand, 9> cand_ops;
      // The tiles the region overlaps; an empty stripe (more tile rows
      // than pixel rows) overlaps none.
      const int gy_end = ry1 > ry0 ? grid.tile_row(ry1 - 1) + 1 : 0;
      const int gx_first = grid.tile_column(rx0);
      const int gx_end = grid.tile_column(rx1 - 1) + 1;
      for (int gy = ry1 > ry0 ? grid.tile_row(ry0) : 0; gy < gy_end; ++gy) {
        const int y0 = std::max(gy * h / ny, ry0);
        const int y1 = std::min((gy + 1) * h / ny, ry1);
        if (y0 >= y1) continue;
        for (int gx = gx_first; gx < gx_end; ++gx) {
          const std::int32_t tile = grid.center_index(gx, gy);
          if (tile_skipped[static_cast<std::size_t>(tile)] != 0) continue;
          const int x0 = std::max(gx * w / nx, rx0);
          const int x1 = std::min((gx + 1) * w / nx, rx1);
          if (x0 >= x1) continue;
          SSLIC_TRACE_SCOPE_AT(1, "ppa.tile", tile);
          // Candidate operands in list order — slot order is the tie-break,
          // exactly as the 9:1 minimum tree resolves ties to the lowest slot.
          const CandidateList& cand = candidates[static_cast<std::size_t>(tile)];
          for (std::size_t k = 0; k < cand.size(); ++k) {
            const ClusterCenter& cc =
                result.centers[static_cast<std::size_t>(cand[k])];
            cand_ops[k] = {cc.L, cc.a, cc.b, cc.x, cc.y, cand[k]};
          }
          const std::int32_t count = x1 - x0;
          for (int y = y0; y < y1; ++y) {
            std::uint64_t visited = static_cast<std::uint64_t>(count);
            const std::uint8_t* mask = nullptr;
            if (!all_active) {
              // The row's active pixels are every step-th column from
              // `first`; start at the first one inside the segment.
              const SubsetSchedule::RowStride stride =
                  schedule.active_in_row(y, iter);
              int x = stride.first;
              if (x < x0)
                x += (x0 - x + stride.step - 1) / stride.step * stride.step;
              if (x >= x1) continue;
              std::fill(mask_row, mask_row + count, std::uint8_t{0});
              visited = 0;
              for (; x < x1; x += stride.step) {
                mask_row[x - x0] = 1;
                visited += 1;
              }
              mask = mask_row;
            }
            SSLIC_TRACE_SCOPE_AT(2, "ppa.kernel.row", y);
            const std::size_t off = planes.offset(x0, y);
            kt.assign_candidates_row(planes.L + off, planes.a + off,
                                     planes.b + off, x0, count,
                                     static_cast<double>(y), cand_ops.data(),
                                     static_cast<std::int32_t>(cand.size()),
                                     spatial_weight, mask, labels + off);
            visited_total += visited;
          }
        }
      }
      region_visited[region] = visited_total;
      countdown.region_done(row);
    };
    phases.run(rg.count(), assign_region);

    for (const std::uint64_t visited : region_visited)
      stats.pixels_visited += visited;
    // DRAM accounting convention (see instrumentation.h): per visited pixel
    // Lab(12)+candidates(18)+label r/w(8)+min-dist r/w(8), and every
    // visited pixel scans exactly the 9-candidate list (9 distance evals,
    // 8 running-min compares).
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
    instr.assign_ms += assign_ms;

    // --- Phase B: sigma accumulation, then the center update. ---
    // Band b owns center rows [r0, r1) and adds, in row-major order, only
    // the pixels labelled with its own centers, so every sigma receives
    // the serial loop's additions in the serial loop's order — for any
    // band count. Only pixels assigned this iteration are accumulated, and
    // one in tile row gy holds a label from its tile's candidate list — a
    // center in rows gy-1..gy+1 — so the band only scans tile rows
    // r0-1..r1, at most two more than it owns. The hardware's cluster
    // update unit accumulates from tile-resident data, so this adds no DRAM
    // traffic; it is charged to the center-update phase, as in the paper's
    // Table-1 accounting.
    const auto accumulate_band = [&](std::size_t band) {
      SSLIC_TRACE_SCOPE_AT(1, "ppa.accumulate", static_cast<std::int64_t>(band));
      const auto [r0, r1] = detail::chunk_bounds(0, ny, bands, band);
      const auto lo = static_cast<std::int32_t>(r0 * nx);
      const auto owned_count = static_cast<std::uint32_t>((r1 - r0) * nx);
      const auto owned = [lo, owned_count](std::int32_t label) {
        return static_cast<std::uint32_t>(label - lo) < owned_count;
      };
      std::fill(sigmas.begin() + lo, sigmas.begin() + lo + owned_count, Sigma{});
      const int y_begin =
          static_cast<int>(std::max<std::int64_t>(0, r0 - 1)) * h / ny;
      const int y_end =
          (static_cast<int>(std::min<std::int64_t>(ny - 1, r1)) + 1) * h / ny;
      std::uint64_t accumulated = 0;
      int released = y_begin;
      for (int y = y_begin; y < y_end; ++y) {
        const std::size_t row = planes.offset(0, y);
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
              kt.accumulate_row(planes.L + row + x, planes.a + row + x,
                                planes.b + row + x, x, run_end - x, y,
                                row_labels + x, sigmas.data());
              accumulated += static_cast<std::uint64_t>(run_end - x);
            }
            x = run_end;
          }
        } else {
          // Inactive subset members and the tiles the preemptive extension
          // skipped this iteration contribute nothing. Tiles are looked up
          // by the assignment partition, so exactly the pixels phase A
          // assigned are accumulated.
          const int gy = grid.tile_row(y);
          const SubsetSchedule::RowStride stride = schedule.active_in_row(y, iter);
          for (int x = stride.first; x < w; x += stride.step) {
            if (params.preemptive &&
                tile_skipped[static_cast<std::size_t>(
                    grid.center_index(grid.tile_column(x), gy))] != 0) {
              continue;
            }
            const std::int32_t label = row_labels[x];
            if (!owned(label)) continue;
            sigmas[static_cast<std::size_t>(label)].add(
                planes.lab(row + static_cast<std::size_t>(x)), x, y);
            accumulated += 1;
          }
        }
        planes.release_behind(released, y + 1);
      }
      planes.release_rows(released, y_end);
      band_accumulated[band] = accumulated;
    };
    phases.run(bands, accumulate_band);

    std::uint64_t accumulated = 0;
    for (std::size_t band = 0; band < bands; ++band)
      accumulated += band_accumulated[band];
    // Guards the band ownership argument: a pixel that no band owned, or
    // that two bands summed, breaks the equality.
    SSLIC_CHECK_MSG(accumulated == stats.pixels_visited,
                    "PPA accumulated " << accumulated << " pixels but assigned "
                                       << stats.pixels_visited);
    instr.ops.accumulate_ops += 6 * accumulated;
    stats.center_movement = update_ppa_centers(sigmas, dist, params, result.centers,
                                               calm_streak, frozen, instr);
    const double update_ms = iter_stages.complete("ppa.update", iter);
    instr.update_ms += update_ms;

    instr.iterations += 1;
    result.iterations_run = iter + 1;
    stats.elapsed_ms = assign_ms + update_ms;
    result.trace.push_back(stats);

    if (callback) callback(stats, result.labels, result.centers);
    if (params.convergence_threshold > 0.0 &&
        stats.center_movement < params.convergence_threshold &&
        iter + 1 >= schedule.count()) {
      break;
    }
  }
}

}  // namespace sslic
