#include "slic/tiled.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/logging.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "image/gradient.h"
#include "slic/assign_kernels.h"
#include "slic/center_update.h"
#include "slic/connectivity.h"
#include "slic/distance.h"
#include "slic/grid.h"
#include "slic/subsampled.h"
#include "slic/subset_schedule.h"

namespace sslic {
namespace {

/// Rows per page-release batch in the streaming passes. Small enough to
/// bound RSS at gigapixel widths, large enough that the madvise syscall
/// amortizes over tens of thousands of row-pixels.
constexpr int kReleaseStride = 128;

/// Monolithic working-set estimate (bytes/pixel) for the fallback decision:
/// Lab planes (12) + labels (4) + min-distance plane (8) + seeding gradient
/// plane (4) + connectivity run records (<= 12: reserved for one run per
/// pixel, paged in only as they are written).
constexpr std::size_t kMonolithicBytesPerPixel = 40;

void publish_tiled_path(bool tiled) {
  // Change-only publication (the registry lookup allocates a string key;
  // per-frame callers must stay allocation-free at steady state).
  static std::atomic<int> last{-1};
  const int value = tiled ? 1 : 0;
  if (last.exchange(value, std::memory_order_relaxed) != value) {
    telemetry::MetricsRegistry::global()
        .gauge("sslic.tiled.path")
        .set(static_cast<double>(value));
  }
}

void publish_tile_count(int tiles) {
  static std::atomic<int> last{-1};
  if (last.exchange(tiles, std::memory_order_relaxed) != tiles) {
    telemetry::MetricsRegistry::global()
        .gauge("sslic.tiled.tiles")
        .set(static_cast<double>(tiles));
  }
}

/// Live-progress metrics for the ops plane: a /varz scrape mid-run shows
/// which iteration the sweep is on and how many tiles have completed since
/// process start. Pointers resolve once (the registry lookup allocates; the
/// per-tile path must not) — like every cached metric reference, they are
/// invalidated by MetricsRegistry::clear().
struct LiveProgress {
  telemetry::Gauge* iteration;
  telemetry::Counter* tiles_done;
};

const LiveProgress& live_progress() {
  static const LiveProgress live{
      &telemetry::MetricsRegistry::global().gauge("sslic.tiled.live.iteration"),
      &telemetry::MetricsRegistry::global().counter(
          "sslic.tiled.live.tiles_done")};
  return live;
}

/// The literal tile partition: tiles of tile_w x tile_h with the remainder
/// in the last row/column (down to a single pixel).
struct TileGeometry {
  int width = 0;
  int height = 0;
  int tile_w = 0;
  int tile_h = 0;
  int tiles_x = 0;
  int tiles_y = 0;

  [[nodiscard]] int x0(int tx) const { return tx * tile_w; }
  [[nodiscard]] int x1(int tx) const { return std::min(width, (tx + 1) * tile_w); }
  [[nodiscard]] int y0(int ty) const { return ty * tile_h; }
  [[nodiscard]] int y1(int ty) const { return std::min(height, (ty + 1) * tile_h); }
  [[nodiscard]] int tile_of_x(int x) const {
    return std::min(x / tile_w, tiles_x - 1);
  }
  [[nodiscard]] int tile_of_y(int y) const {
    return std::min(y / tile_h, tiles_y - 1);
  }
  [[nodiscard]] int num_tiles() const { return tiles_x * tiles_y; }
};

TileGeometry make_tile_geometry(int w, int h, const TiledConfig& config) {
  TileGeometry g;
  g.width = w;
  g.height = h;
  int tw = config.tile_width;
  int th = config.tile_height;
  if (tw <= 0 || th <= 0) {
    // Budget-derived square-ish tile: one tile's assignment working set is
    // ~28 B/px (Lab rows + labels + per-tile min-dist scratch); keep it to
    // about a quarter of the budget so the band accumulation pass and
    // in-flight neighbours fit alongside.
    constexpr std::size_t kTileBytesPerPixel = 28;
    const std::size_t target_px =
        std::max<std::size_t>(std::size_t{256} * 256,
                              config.memory_budget_bytes / (kTileBytesPerPixel * 4));
    const int side =
        std::max(64, static_cast<int>(std::sqrt(static_cast<double>(target_px))));
    if (tw <= 0) tw = side;
    if (th <= 0) th = side;
    // Full-width row bands are only released once every tile in a tile row
    // has finished, so the assignment phase keeps w x tile_h x 16 B (Lab +
    // labels) resident at a time. Cap the auto tile height so that working
    // set stays within half the budget — at gigapixel widths the square
    // side above would blow straight through it.
    if (config.tile_height <= 0) {
      const std::size_t row_band_bytes = static_cast<std::size_t>(w) * 16;
      const std::size_t cap = config.memory_budget_bytes / 2 / row_band_bytes;
      th = std::max(1, std::min(th, static_cast<int>(std::min<std::size_t>(
                                        cap, std::size_t{1} << 20))));
    }
  }
  g.tile_w = std::clamp(tw, 1, w);
  g.tile_h = std::clamp(th, 1, h);
  g.tiles_x = (w + g.tile_w - 1) / g.tile_w;
  g.tiles_y = (h + g.tile_h - 1) / g.tile_h;
  return g;
}

/// Clamped scan window of one CPA center (local mirror of ScanWindow; the
/// tiled driver does not carry an IterationScratch).
struct Window {
  int x0 = 0;
  int x1 = -1;
  int y0 = 0;
  int y1 = -1;
  [[nodiscard]] std::uint64_t pixels() const {
    return static_cast<std::uint64_t>(x1 - x0 + 1) *
           static_cast<std::uint64_t>(y1 - y0 + 1);
  }
};

/// Per-tile working buffers (min-dist scratch + subset-mask row), recycled
/// through a freelist so a steady-state run allocates per distinct tile
/// shape, not per tile visit.
struct TileScratch {
  std::vector<double> min_dist;
  std::vector<std::uint8_t> mask;
};

class TileScratchPool {
 public:
  TileScratch acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) return {};
    TileScratch s = std::move(free_.back());
    free_.pop_back();
    return s;
  }
  void release(TileScratch&& s) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(s));
  }

 private:
  std::mutex mu_;
  std::vector<TileScratch> free_;
};

/// One tiled segmentation over an open PlanarStore. Replays the monolithic
/// iteration structure (CpaSlic / PpaSlic at float64) with tile-partitioned
/// assignment and the exact monolithic reduction order — see tiled.h for
/// the identity argument.
class TiledRun {
 public:
  TiledRun(Algorithm algorithm, const SlicParams& params,
           const TileGeometry& geo, PlanarStore& store, Instrumentation& instr,
           TiledStats& stats)
      : algorithm_(algorithm),
        params_(params),
        geo_(geo),
        store_(store),
        instr_(instr),
        stats_(stats),
        w_(store.width()),
        h_(store.height()),
        n_(static_cast<std::size_t>(w_) * static_cast<std::size_t>(h_)),
        grid_(w_, h_, params.num_superpixels),
        spacing_(grid_.spacing()),
        dist_(params.compactness, spacing_),
        schedule_(algorithm == Algorithm::kSslicPpa
                      ? SubsetSchedule::from_ratio(params.subsample_ratio,
                                                   params.subset_pattern)
                      : SubsetSchedule::from_ratio(params.subsample_ratio)),
        kt_(kernels::active()),
        spatial_weight_(dist_.spatial_weight()),
        pl_(store.lab_l()),
        pa_(store.lab_a()),
        pb_(store.lab_b()),
        labels_(store.labels()) {}

  void run(Segmentation& result, const std::int32_t** final_labels) {
    instr_ = Instrumentation{};
    instr_.fused = false;  // the tiled driver uses the two-pass accounting
    result.centers.clear();
    result.trace.clear();
    result.trace.reserve(static_cast<std::size_t>(params_.max_iterations));
    result.iterations_run = 0;

    // One clock per stage, as in CpaSlic / PpaSlic: each complete() records
    // the stage's span and adds the same measurement to its field.
    trace::Interval init_stage;
    seed(result.centers);
    fill_initial_labels();
    if (algorithm_ != Algorithm::kSslicPpa && schedule_.count() > 1)
      seed_min_dist(result.centers);
    instr_.init_ms += init_stage.complete("tiled.init");
    if (algorithm_ == Algorithm::kSslicPpa) {
      run_ppa(result);
    } else {
      run_cpa(result);
    }
    *final_labels = finalize();

    stats_.used_tiled_path = true;
    stats_.tiles_x = geo_.tiles_x;
    stats_.tiles_y = geo_.tiles_y;
    stats_.bytes_per_iteration =
        static_cast<std::uint64_t>(instr_.traffic_bytes_per_iteration());
    stats_.store_bytes = store_.bytes_mapped();
    stats_.peak_rss = peak_rss_bytes();
  }

 private:
  [[nodiscard]] std::size_t flat(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(w_) +
           static_cast<std::size_t>(x);
  }
  [[nodiscard]] LabF lab_at(std::size_t f) const {
    return LabF{pl_[f], pa_[f], pb_[f]};
  }

  // --- Seeding ------------------------------------------------------------

  /// seed_centers over the store planes. The gradient perturbation runs on
  /// a 5x5 Lab patch around each candidate: the patch bakes the global
  /// clamped reads in, so for w,h >= 3 the 3x3 argmin probes see exactly
  /// the global gradient values (same TU, same float expressions) and the
  /// perturbed positions are bit-identical to the full-image pass — without
  /// ever materializing an image-sized gradient plane.
  void seed(std::vector<ClusterCenter>& centers) {
    centers.resize(static_cast<std::size_t>(grid_.num_centers()));
    const bool perturb = params_.perturb_centers;
    if (perturb && (w_ < 3 || h_ < 3)) {
      // Degenerate geometry (2-pixel edge): the patch trick's in-bounds
      // argument needs w,h >= 3. Materialize — the image is tiny.
      LabImage lab(w_, h_);
      const std::size_t n = lab.size();
      std::copy_n(pl_, n, lab.L.data());
      std::copy_n(pa_, n, lab.a.data());
      std::copy_n(pb_, n, lab.b.data());
      Image<float> gradient;
      seed_centers(grid_, lab, perturb, centers, gradient);
      return;
    }
    LabImage patch(5, 5);
    Image<float> patch_grad;
    // The patch reads walk the image in ~spacing-tall stripes; drop the
    // stripes behind the walk as it goes. Without this the scattered
    // faults — each inflated by the kernel's fault-around readahead on
    // file mappings — leave a large fraction of the Lab planes resident
    // before the first iteration even starts.
    int released = 0;
    for (int gy = 0; gy < grid_.ny(); ++gy) {
      for (int gx = 0; gx < grid_.nx(); ++gx) {
        int px = std::clamp(static_cast<int>(grid_.center_pos_x(gx)), 0, w_ - 1);
        int py = std::clamp(static_cast<int>(grid_.center_pos_y(gy)), 0, h_ - 1);
        if (perturb) {
          // argmin_gradient_3x3's own centre clamp, precomputed so the
          // patch can be positioned around it.
          const int cx = std::clamp(px, 1, std::max(1, w_ - 2));
          const int cy = std::clamp(py, 1, std::max(1, h_ - 2));
          for (int ly = 0; ly < 5; ++ly) {
            const int sy = std::clamp(cy + ly - 2, 0, h_ - 1);
            for (int lx = 0; lx < 5; ++lx) {
              const int sx = std::clamp(cx + lx - 2, 0, w_ - 1);
              patch.set(lx, ly, lab_at(flat(sx, sy)));
            }
          }
          lab_gradient_magnitude(patch, patch_grad);
          const Point p = argmin_gradient_3x3(patch_grad, 2, 2);
          px = cx + (p.x - 2);
          py = cy + (p.y - 2);
        }
        const LabF color = lab_at(flat(px, py));
        centers[static_cast<std::size_t>(grid_.center_index(gx, gy))] = {
            static_cast<double>(color.L), static_cast<double>(color.a),
            static_cast<double>(color.b), static_cast<double>(px),
            static_cast<double>(py)};
      }
      if (store_.disk_backed()) {
        // Rows above cy+3 can no longer be touched: this grid row's patches
        // reach clamp(cy,1,h-2)+2 at most, and the next row's start below.
        const int cy =
            std::clamp(static_cast<int>(grid_.center_pos_y(gy)), 0, h_ - 1);
        const int hi = std::min(h_, cy + 3);
        if (hi - released >= kReleaseStride) {
          store_.release_rows(released, hi);
          released = hi;
        }
      }
    }
    if (store_.disk_backed()) store_.release_rows(released, h_);
  }

  void fill_initial_labels() {
    parallel_for(0, h_, [&](std::int64_t ylo, std::int64_t yhi) {
      // Release inside the chunk, not per chunk: with few threads a chunk
      // can be the whole plane, and waiting until its end would leave
      // every page dirty-resident at once.
      int released = static_cast<int>(ylo);
      for (int y = static_cast<int>(ylo); y < static_cast<int>(yhi); ++y) {
        const int gy = grid_.cell_y(y);
        std::int32_t* row = labels_ + flat(0, y);
        for (int x = 0; x < w_; ++x)
          row[x] = grid_.center_index(grid_.cell_x(x), gy);
        if (store_.disk_backed() && y + 1 - released >= kReleaseStride) {
          store_.release_plane_rows(PlanarStore::Plane::kLabels, released,
                                    y + 1);
          released = y + 1;
        }
      }
      store_.release_plane_rows(PlanarStore::Plane::kLabels, released,
                                static_cast<int>(yhi));
    });
  }

  /// Subsampled CPA keeps the min-distance plane across iterations; seed it
  /// with the distance to each pixel's initially-assigned center, exactly
  /// as the monolithic path does.
  void seed_min_dist(const std::vector<ClusterCenter>& centers) {
    double* md = store_.min_dist();
    parallel_for(0, h_, [&](std::int64_t ylo, std::int64_t yhi) {
      int released = static_cast<int>(ylo);
      for (int y = static_cast<int>(ylo); y < static_cast<int>(yhi); ++y) {
        for (int x = 0; x < w_; ++x) {
          const std::size_t f = flat(x, y);
          const auto label = static_cast<std::size_t>(labels_[f]);
          md[f] = dist_.squared(lab_at(f), x, y, centers[label]);
        }
        if (store_.disk_backed() && y + 1 - released >= kReleaseStride) {
          store_.release_rows(released, y + 1);
          released = y + 1;
        }
      }
      store_.release_rows(released, static_cast<int>(yhi));
    });
    instr_.ops.distance_evals += n_;
  }

  // --- CPA ----------------------------------------------------------------

  void run_cpa(Segmentation& result);

  // --- PPA ----------------------------------------------------------------

  void run_ppa(Segmentation& result);

  // --- Connectivity / final labels ---------------------------------------

  const std::int32_t* finalize() {
    if (!params_.enforce_connectivity) {
      stats_.final_label_count = grid_.num_centers();
      return labels_;
    }
    trace::Interval connectivity_stage;
    if (store_.disk_backed()) {
      // The Lab and min-distance planes are dead from here on.
      store_.release_plane_rows(PlanarStore::Plane::kLabL, 0, h_);
      store_.release_plane_rows(PlanarStore::Plane::kLabA, 0, h_);
      store_.release_plane_rows(PlanarStore::Plane::kLabB, 0, h_);
      if (store_.min_dist() != nullptr)
        store_.release_plane_rows(PlanarStore::Plane::kMinDist, 0, h_);
    }
    // Prefill the output plane with -1 in released row chunks; a single
    // whole-plane fill would leave every page dirty-resident at once.
    std::int32_t* const out = store_.labels_out();
    for (int y0 = 0; y0 < h_; y0 += kReleaseStride) {
      const int y1 = std::min(h_, y0 + kReleaseStride);
      std::memset(out + flat(0, y0), 0xFF,
                  static_cast<std::size_t>(y1 - y0) *
                      static_cast<std::size_t>(w_) * sizeof(std::int32_t));
      if (store_.disk_backed())
        store_.release_plane_rows(PlanarStore::Plane::kLabelsOut, y0, y1);
    }
    ConnectivitySpanScratch scratch;
    // Flood fills and fragment absorption can revisit rows above the scan
    // cursor; keep a window-sized margin resident (purely a thrash
    // heuristic — released pages refault with their data intact).
    const int margin =
        2 * std::max(1, static_cast<int>(std::lround(spacing_))) + 2;
    int released = 0;
    std::function<void(int)> on_row;
    if (store_.disk_backed()) {
      on_row = [&](int y) {
        const int upto = y - margin;
        if (upto - released >= kReleaseStride) {
          store_.release_plane_rows(PlanarStore::Plane::kLabels, released, upto);
          store_.release_plane_rows(PlanarStore::Plane::kLabelsOut, released,
                                    upto);
          released = upto;
        }
      };
    }
    const ConnectivityResult conn = enforce_connectivity_span(
        labels_, out, w_, h_, params_.num_superpixels, scratch, on_row,
        /*out_prefilled=*/true);
    stats_.final_label_count = conn.final_label_count;
    instr_.connectivity_ms += connectivity_stage.complete("tiled.connectivity");
    return out;
  }

  const Algorithm algorithm_;
  const SlicParams& params_;
  const TileGeometry geo_;
  PlanarStore& store_;
  Instrumentation& instr_;
  TiledStats& stats_;

  const int w_;
  const int h_;
  const std::size_t n_;
  const CenterGrid grid_;
  const double spacing_;
  const DistanceCalculator dist_;
  const SubsetSchedule schedule_;
  const kernels::KernelTable& kt_;
  const double spatial_weight_;

  float* const pl_;
  float* const pa_;
  float* const pb_;
  std::int32_t* const labels_;
};

void TiledRun::run_cpa(Segmentation& result) {
  const bool subsampled = schedule_.count() > 1;

  const int num_centers = grid_.num_centers();
  const auto num_centers_z = static_cast<std::size_t>(num_centers);
  std::vector<ClusterCenter>& centers = result.centers;
  std::vector<Sigma> sigmas(num_centers_z);
  std::vector<std::uint8_t> active(num_centers_z, 1);
  std::vector<Window> windows(num_centers_z);

  // Phase B reduction bands: the monolithic fixed band budget, never the
  // tile grid — the sigma reduction tree must not depend on tiling.
  const std::size_t bands =
      std::min<std::size_t>(detail::kReduceChunks, static_cast<std::size_t>(h_));
  stats_.bands = static_cast<int>(bands);
  std::vector<std::vector<Sigma>> band_sigmas;

  const int window = std::max(1, static_cast<int>(std::lround(spacing_)));
  const int tiles_x = geo_.tiles_x;
  const int num_tiles = geo_.num_tiles();
  std::vector<std::vector<std::int32_t>> tile_buckets(
      static_cast<std::size_t>(num_tiles));
  // Countdown of unfinished tiles per tile row; the last tile of a row
  // releases the row band's pages.
  std::vector<std::atomic<int>> row_remaining(
      static_cast<std::size_t>(geo_.tiles_y));
  TileScratchPool scratch_pool;
  double* const md = store_.min_dist();

  for (int iter = 0; iter < params_.max_iterations; ++iter) {
    SSLIC_TRACE_SCOPE("tiled.iter", iter);
    IterationStats stats;
    stats.iteration = iter;

    live_progress().iteration->set(iter);
    trace::Interval iter_stages;  // assignment, then accumulation and update
    // Full SLIC's per-iteration min-distance reset, charged analytically
    // (the tiled path folds it into the per-tile scratch fill).
    if (!subsampled)
      instr_.traffic.distance_write += n_ * MemTraffic::kDistanceBytes;

    // Serial prelude over the K centers: activity flags, clamped windows,
    // and the monolithic row-sweep op/traffic accounting — analytic from
    // the window geometry, so the parallel tile sweep below carries no
    // counter updates.
    const int active_subset = schedule_.active_subset(iter);
    for (std::size_t ci = 0; ci < centers.size(); ++ci) {
      const bool is_active =
          !subsampled ||
          static_cast<int>(ci) % schedule_.count() == active_subset;
      active[ci] = is_active ? 1 : 0;
      if (!is_active) continue;

      const ClusterCenter& c = centers[ci];
      const int cx = static_cast<int>(std::lround(c.x));
      const int cy = static_cast<int>(std::lround(c.y));
      Window& win = windows[ci];
      win.x0 = std::max(0, cx - window);
      win.x1 = std::min(w_ - 1, cx + window);
      win.y0 = std::max(0, cy - window);
      win.y1 = std::min(h_ - 1, cy + window);

      const std::uint64_t wpix = win.pixels();
      instr_.ops.distance_evals += wpix;
      instr_.ops.compare_ops += wpix;
      stats.pixels_visited += wpix;
      instr_.traffic.center_read += MemTraffic::kCenterBytes;
      instr_.traffic.image_read += wpix * MemTraffic::kLabBytes;
      instr_.traffic.distance_read += wpix * MemTraffic::kDistanceBytes;
      instr_.traffic.distance_write += wpix * MemTraffic::kDistanceBytes;
      instr_.traffic.label_write += wpix * MemTraffic::kLabelBytes;
    }

    // Bucket the active centers by the tiles their windows intersect —
    // ascending center index by construction, which every tile's drain
    // order below inherits (the identity-critical ordering). A window
    // spanning several tiles is re-fetched by each: the halo exchange.
    for (auto& bucket : tile_buckets) bucket.clear();
    std::uint64_t halo = 0;
    for (std::size_t ci = 0; ci < centers.size(); ++ci) {
      if (active[ci] == 0) continue;
      const Window& win = windows[ci];
      const int tx0 = geo_.tile_of_x(win.x0);
      const int tx1 = geo_.tile_of_x(win.x1);
      const int ty0 = geo_.tile_of_y(win.y0);
      const int ty1 = geo_.tile_of_y(win.y1);
      for (int ty = ty0; ty <= ty1; ++ty) {
        for (int tx = tx0; tx <= tx1; ++tx) {
          tile_buckets[static_cast<std::size_t>(ty * tiles_x + tx)].push_back(
              static_cast<std::int32_t>(ci));
        }
      }
      const int touched = (ty1 - ty0 + 1) * (tx1 - tx0 + 1);
      halo += static_cast<std::uint64_t>(touched - 1) * MemTraffic::kCenterBytes;
    }
    stats_.halo_bytes += halo;
    instr_.traffic.center_read += halo;

    for (auto& remaining : row_remaining)
      remaining.store(tiles_x, std::memory_order_relaxed);

    // Phase A: per-tile assignment sweep. Each pixel belongs to exactly
    // one tile and sees its covering centers in ascending index order with
    // the same strict-< kernel arithmetic as the monolithic row sweep, so
    // labels are partition-invariant for any tile geometry.
    const auto tile_body = [&](std::size_t t) {
      const int tx = static_cast<int>(t) % tiles_x;
      const int ty = static_cast<int>(t) / tiles_x;
      const int rx0 = geo_.x0(tx);
      const int rx1 = geo_.x1(tx);
      const int ry0 = geo_.y0(ty);
      const int ry1 = geo_.y1(ty);
      const auto& bucket = tile_buckets[t];
      if (!bucket.empty()) {
        SSLIC_TRACE_SCOPE_AT(1, "tiled.assign.tile", static_cast<std::int64_t>(t));
        TileScratch scratch;
        double* tile_md = nullptr;
        const int md_stride = rx1 - rx0;
        if (!subsampled) {
          // Full SLIC resets min-dist every iteration anyway, so the
          // running minima live in tile-local scratch instead of an
          // image-sized plane.
          scratch = scratch_pool.acquire();
          scratch.min_dist.assign(
              static_cast<std::size_t>(md_stride) *
                  static_cast<std::size_t>(ry1 - ry0),
              std::numeric_limits<double>::infinity());
          tile_md = scratch.min_dist.data();
        }
        for (const std::int32_t ci : bucket) {
          const Window& win = windows[static_cast<std::size_t>(ci)];
          const int x0 = std::max(win.x0, rx0);
          const int x1 = std::min(win.x1, rx1 - 1);
          const int y0 = std::max(win.y0, ry0);
          const int y1 = std::min(win.y1, ry1 - 1);
          if (x0 > x1 || y0 > y1) continue;
          const ClusterCenter& c = centers[static_cast<std::size_t>(ci)];
          const kernels::CenterOperand op{c.L, c.a, c.b, c.x, c.y, ci};
          const std::int32_t count = x1 - x0 + 1;
          for (int y = y0; y <= y1; ++y) {
            const std::size_t off = flat(x0, y);
            double* md_row =
                subsampled ? md + off
                           : tile_md +
                                 static_cast<std::size_t>(y - ry0) *
                                     static_cast<std::size_t>(md_stride) +
                                 static_cast<std::size_t>(x0 - rx0);
            kt_.assign_center_row(pl_ + off, pa_ + off, pb_ + off, x0, count,
                                  static_cast<double>(y), op, spatial_weight_,
                                  md_row, labels_ + off);
          }
        }
        if (!subsampled) scratch_pool.release(std::move(scratch));
      }
      if (store_.disk_backed() &&
          row_remaining[static_cast<std::size_t>(ty)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        store_.release_rows(ry0, ry1);
      }
      live_progress().tiles_done->add();
    };
    ThreadPool& pool = ThreadPool::global();
    if (pool.threads() <= 1 || num_tiles <= 1 ||
        ThreadPool::in_parallel_region()) {
      for (std::size_t t = 0; t < static_cast<std::size_t>(num_tiles); ++t)
        tile_body(t);
    } else {
      pool.run_chunks(static_cast<std::size_t>(num_tiles), tile_body);
    }
    const double assign_ms = iter_stages.complete("tiled.assign", iter);
    instr_.assign_ms += assign_ms;

    // Phase B: sigma accumulation over the monolithic fixed row bands,
    // partials folded in ascending band order — the exact reduction tree
    // of the in-memory path, independent of tiling and thread count.
    const auto band_body = [&](std::size_t band, std::vector<Sigma>& band_pool) {
      const auto [blo, bhi] = detail::chunk_bounds(0, h_, bands, band);
      if (blo >= bhi) return;
      SSLIC_TRACE_SCOPE_AT(1, "tiled.accumulate.band",
                           static_cast<std::int64_t>(band));
      band_pool.assign(num_centers_z, Sigma{});
      int released = static_cast<int>(blo);
      for (int y = static_cast<int>(blo); y < static_cast<int>(bhi); ++y) {
        const std::size_t off = flat(0, y);
        kt_.accumulate_row(pl_ + off, pa_ + off, pb_ + off, 0, w_, y,
                           labels_ + off, band_pool.data());
        if (store_.disk_backed() && y + 1 - released >= kReleaseStride) {
          store_.release_rows(released, y + 1);
          released = y + 1;
        }
      }
      if (store_.disk_backed() && released < static_cast<int>(bhi))
        store_.release_rows(released, static_cast<int>(bhi));
    };
    if (pool.threads() <= 1 || bands <= 1 || ThreadPool::in_parallel_region()) {
      if (band_sigmas.empty()) band_sigmas.resize(1);
      std::vector<Sigma>& band_pool = band_sigmas[0];
      for (std::size_t band = 0; band < bands; ++band) {
        band_body(band, band_pool);
        if (band == 0) {
          sigmas = band_pool;
        } else {
          merge_sigmas(sigmas, band_pool);
        }
      }
    } else {
      if (band_sigmas.size() < bands) band_sigmas.resize(bands);
      pool.run_chunks(bands, [&](std::size_t band) {
        band_body(band, band_sigmas[band]);
      });
      sigmas = band_sigmas[0];
      for (std::size_t band = 1; band < bands; ++band)
        merge_sigmas(sigmas, band_sigmas[band]);
    }
    // Two-pass accounting: the sigma pass re-reads image + labels.
    instr_.traffic.image_read += n_ * MemTraffic::kLabBytes;
    instr_.traffic.label_read += n_ * MemTraffic::kLabelBytes;
    instr_.ops.accumulate_ops += 6 * n_;

    stats.center_movement =
        update_centers(centers, sigmas,
                       subsampled ? active : std::vector<std::uint8_t>{},
                       &instr_.ops);
    instr_.traffic.center_write +=
        static_cast<std::uint64_t>(num_centers) * MemTraffic::kCenterBytes;
    const double update_ms = iter_stages.complete("tiled.update", iter);
    instr_.update_ms += update_ms;

    instr_.iterations += 1;
    result.iterations_run = iter + 1;
    stats.elapsed_ms = assign_ms + update_ms;
    result.trace.push_back(stats);

    if (params_.convergence_threshold > 0.0 &&
        stats.center_movement < params_.convergence_threshold &&
        iter + 1 >= schedule_.count()) {
      break;  // every subset has been visited at least once
    }
  }
}

void TiledRun::run_ppa(Segmentation& result) {
  const int num_centers = grid_.num_centers();
  const auto num_centers_z = static_cast<std::size_t>(num_centers);
  std::vector<ClusterCenter>& centers = result.centers;
  for (auto& c : centers) dist_.quantize_center(c);  // identity at float64

  const std::vector<CandidateList> candidates = build_candidate_map(grid_);
  std::vector<Sigma> sigmas(num_centers_z);
  std::vector<std::uint8_t> frozen(num_centers_z, 0);
  std::vector<std::uint8_t> calm_streak(num_centers_z, 0);
  std::vector<std::uint8_t> tile_skipped(num_centers_z, 0);
  stats_.bands = 1;  // PPA accumulates in one serial global row-major pass

  const int tiles_x = geo_.tiles_x;
  const int num_tiles = geo_.num_tiles();
  std::vector<std::uint64_t> tile_visited(static_cast<std::size_t>(num_tiles));
  std::vector<std::atomic<int>> row_remaining(
      static_cast<std::size_t>(geo_.tiles_y));
  TileScratchPool scratch_pool;
  const bool all_active = schedule_.count() == 1;

  for (int iter = 0; iter < params_.max_iterations; ++iter) {
    SSLIC_TRACE_SCOPE("tiled.iter", iter);
    IterationStats stats;
    stats.iteration = iter;

    live_progress().iteration->set(iter);
    trace::Interval iter_stages;  // assignment, then accumulation and update
    std::fill(tile_skipped.begin(), tile_skipped.end(), std::uint8_t{0});

    // Serial pre-pass over the grid cells: preemptive skips and the
    // per-cell candidate-fetch charge, each exactly once per cell (the
    // monolithic convention) no matter how many tiles the cell spans.
    for (int gy = 0; gy < grid_.ny(); ++gy) {
      for (int gx = 0; gx < grid_.nx(); ++gx) {
        const auto cell =
            static_cast<std::size_t>(grid_.center_index(gx, gy));
        if (params_.preemptive) {
          const CandidateList& cand = candidates[cell];
          const bool all_frozen =
              std::all_of(cand.begin(), cand.end(), [&](std::int32_t c) {
                return frozen[static_cast<std::size_t>(c)] != 0;
              });
          if (all_frozen) {
            instr_.tiles_skipped += 1;
            tile_skipped[cell] = 1;
            continue;
          }
        }
        instr_.traffic.center_read += 9 * MemTraffic::kCenterBytes;
        // Halo: a cell whose stripe rectangle spans several tiles re-reads
        // its 9 candidate operands once per extra tile.
        const int y0 = gy * h_ / grid_.ny();
        const int y1 = (gy + 1) * h_ / grid_.ny();
        const int x0 = gx * w_ / grid_.nx();
        const int x1 = (gx + 1) * w_ / grid_.nx();
        if (y1 > y0 && x1 > x0) {
          const int spans =
              (geo_.tile_of_y(y1 - 1) - geo_.tile_of_y(y0) + 1) *
              (geo_.tile_of_x(x1 - 1) - geo_.tile_of_x(x0) + 1);
          const auto extra = static_cast<std::uint64_t>(spans - 1) * 9 *
                             MemTraffic::kCenterBytes;
          stats_.halo_bytes += extra;
          instr_.traffic.center_read += extra;
        }
      }
    }

    // Phase A: per-tile sweep over the cell segments intersecting each
    // tile. assign_candidates_row is per-pixel pure (fresh best-of-9, no
    // cross-pixel state), so any segment split reproduces the monolithic
    // bytes; the subset mask is rebuilt per segment with the same
    // schedule.active values.
    std::fill(tile_visited.begin(), tile_visited.end(), 0);
    for (auto& remaining : row_remaining)
      remaining.store(tiles_x, std::memory_order_relaxed);

    const auto tile_body = [&](std::size_t t) {
      const int tx = static_cast<int>(t) % tiles_x;
      const int ty = static_cast<int>(t) / tiles_x;
      const int rx0 = geo_.x0(tx);
      const int rx1 = geo_.x1(tx);
      const int ry0 = geo_.y0(ty);
      const int ry1 = geo_.y1(ty);
      SSLIC_TRACE_SCOPE_AT(1, "tiled.assign.tile", static_cast<std::int64_t>(t));
      TileScratch scratch = scratch_pool.acquire();
      const int md_stride = rx1 - rx0;
      // Write-only running-min rows (the PPA kernel never reads them), so
      // no infinity fill is needed.
      scratch.min_dist.resize(static_cast<std::size_t>(md_stride) *
                              static_cast<std::size_t>(ry1 - ry0));
      scratch.mask.resize(static_cast<std::size_t>(md_stride));
      std::uint64_t visited_total = 0;
      std::array<kernels::CenterOperand, 9> cand_ops;

      const int gy0 = grid_.tile_row(ry0);
      const int gy1 = grid_.tile_row(ry1 - 1);
      const int gx0 = grid_.tile_column(rx0);
      const int gx1 = grid_.tile_column(rx1 - 1);
      for (int gy = gy0; gy <= gy1; ++gy) {
        const int cy0 = gy * h_ / grid_.ny();
        const int cy1 = (gy + 1) * h_ / grid_.ny();
        const int sy0 = std::max(cy0, ry0);
        const int sy1 = std::min(cy1, ry1);
        if (sy0 >= sy1) continue;
        for (int gx = gx0; gx <= gx1; ++gx) {
          const auto cell =
              static_cast<std::size_t>(grid_.center_index(gx, gy));
          if (tile_skipped[cell] != 0) continue;
          const int cx0 = gx * w_ / grid_.nx();
          const int cx1 = (gx + 1) * w_ / grid_.nx();
          const int sx0 = std::max(cx0, rx0);
          const int sx1 = std::min(cx1, rx1);
          if (sx0 >= sx1) continue;
          const CandidateList& cand = candidates[cell];
          for (std::size_t k = 0; k < cand.size(); ++k) {
            const ClusterCenter& cc =
                centers[static_cast<std::size_t>(cand[k])];
            cand_ops[k] = {cc.L, cc.a, cc.b, cc.x, cc.y, cand[k]};
          }
          const std::int32_t count = sx1 - sx0;
          for (int y = sy0; y < sy1; ++y) {
            const std::size_t off = flat(sx0, y);
            std::uint64_t visited = static_cast<std::uint64_t>(count);
            const std::uint8_t* mask = nullptr;
            if (!all_active) {
              visited = 0;
              for (int x = sx0; x < sx1; ++x) {
                const bool is_active = schedule_.active(x, y, iter);
                scratch.mask[static_cast<std::size_t>(x - sx0)] =
                    is_active ? std::uint8_t{1} : std::uint8_t{0};
                visited += is_active ? 1 : 0;
              }
              if (visited == 0) continue;
              mask = scratch.mask.data();
            }
            SSLIC_TRACE_SCOPE_AT(2, "tiled.kernel.row", y);
            double* md_row = scratch.min_dist.data() +
                             static_cast<std::size_t>(y - ry0) *
                                 static_cast<std::size_t>(md_stride) +
                             static_cast<std::size_t>(sx0 - rx0);
            kt_.assign_candidates_row(
                pl_ + off, pa_ + off, pb_ + off, sx0, count,
                static_cast<double>(y), cand_ops.data(),
                static_cast<std::int32_t>(cand.size()), spatial_weight_, mask,
                md_row, labels_ + off);
            visited_total += visited;
          }
        }
      }
      tile_visited[t] = visited_total;
      scratch_pool.release(std::move(scratch));
      if (store_.disk_backed() &&
          row_remaining[static_cast<std::size_t>(ty)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        store_.release_rows(ry0, ry1);
      }
      live_progress().tiles_done->add();
    };
    ThreadPool& pool = ThreadPool::global();
    if (pool.threads() <= 1 || num_tiles <= 1 ||
        ThreadPool::in_parallel_region()) {
      for (std::size_t t = 0; t < static_cast<std::size_t>(num_tiles); ++t)
        tile_body(t);
    } else {
      pool.run_chunks(static_cast<std::size_t>(num_tiles), tile_body);
    }
    // Exact integer tallies, summed in ascending tile order.
    for (std::size_t t = 0; t < static_cast<std::size_t>(num_tiles); ++t)
      stats.pixels_visited += tile_visited[t];

    // Hoisted per-visited-pixel accounting (monolithic convention: 9
    // distance evals, 8 compares, 46 B per visited pixel).
    instr_.ops.distance_evals += stats.pixels_visited * 9;
    instr_.ops.compare_ops += stats.pixels_visited * 8;
    instr_.traffic.image_read += stats.pixels_visited * MemTraffic::kLabBytes;
    instr_.traffic.candidate_read +=
        stats.pixels_visited * MemTraffic::kCandidateBytes;
    instr_.traffic.label_read += stats.pixels_visited * MemTraffic::kLabelBytes;
    instr_.traffic.label_write += stats.pixels_visited * MemTraffic::kLabelBytes;
    instr_.traffic.distance_read +=
        stats.pixels_visited * MemTraffic::kDistanceBytes;
    instr_.traffic.distance_write +=
        stats.pixels_visited * MemTraffic::kDistanceBytes;
    const double assign_ms = iter_stages.complete("tiled.assign", iter);
    instr_.assign_ms += assign_ms;

    // Phase B: serial sigma accumulation in global row-major order. Every
    // sigma gets the additions, in the order, that the monolithic path's
    // center-row-owned bands give it, so centers match bit for bit; the
    // serial sweep streams the label and Lab rows once and releases them
    // behind the cursor.
    for (auto& s : sigmas) s.clear();
    std::uint64_t accumulated = 0;
    int released = 0;
    for (int y = 0; y < h_; ++y) {
      const int gy = grid_.tile_row(y);
      for (int x = 0; x < w_; ++x) {
        if (!schedule_.active(x, y, iter)) continue;
        if (params_.preemptive &&
            tile_skipped[static_cast<std::size_t>(
                grid_.center_index(grid_.tile_column(x), gy))] != 0) {
          continue;
        }
        const std::size_t f = flat(x, y);
        sigmas[static_cast<std::size_t>(labels_[f])].add(lab_at(f), x, y);
        accumulated += 1;
      }
      if (store_.disk_backed() && y + 1 - released >= kReleaseStride) {
        store_.release_rows(released, y + 1);
        released = y + 1;
      }
    }
    if (store_.disk_backed() && released < h_)
      store_.release_rows(released, h_);
    SSLIC_CHECK_MSG(accumulated == stats.pixels_visited,
                    "tiled PPA accumulated " << accumulated
                                             << " pixels but assigned "
                                             << stats.pixels_visited);
    instr_.ops.accumulate_ops += 6 * accumulated;

    stats.center_movement = update_ppa_centers(
        sigmas, dist_, params_, centers, calm_streak, frozen, instr_);
    const double update_ms = iter_stages.complete("tiled.update", iter);
    instr_.update_ms += update_ms;

    instr_.iterations += 1;
    result.iterations_run = iter + 1;
    stats.elapsed_ms = assign_ms + update_ms;
    result.trace.push_back(stats);

    if (params_.convergence_threshold > 0.0 &&
        stats.center_movement < params_.convergence_threshold &&
        iter + 1 >= schedule_.count()) {
      break;
    }
  }
}

int parse_positive_int(const std::string& text) {
  if (text.empty()) return -1;
  long value = 0;
  for (const char ch : text) {
    if (ch < '0' || ch > '9') return -1;
    value = value * 10 + (ch - '0');
    if (value > (1 << 20)) return -1;
  }
  return value > 0 ? static_cast<int>(value) : -1;
}

}  // namespace

bool parse_tile_spec(const std::string& text, int* tile_width,
                     int* tile_height) {
  std::string lower = text;
  for (char& c : lower) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  if (lower == "auto" || lower == "0") {
    *tile_width = 0;
    *tile_height = 0;
    return true;
  }
  const std::size_t sep = lower.find('x');
  if (sep == std::string::npos) return false;
  const int tw = parse_positive_int(lower.substr(0, sep));
  const int th = parse_positive_int(lower.substr(sep + 1));
  if (tw <= 0 || th <= 0) return false;
  *tile_width = tw;
  *tile_height = th;
  return true;
}

bool tile_config_from_env(TiledConfig* config) {
  const char* env = std::getenv("SSLIC_TILE");
  if (env == nullptr || env[0] == '\0') return false;
  int tw = 0;
  int th = 0;
  if (!parse_tile_spec(env, &tw, &th)) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      SSLIC_WARN("unparsable SSLIC_TILE value \""
                 << env << "\"; expected WxH (e.g. 512x256) or auto — ignoring");
    }
    return false;
  }
  config->tile_width = tw;
  config->tile_height = th;
  return true;
}

TiledSegmenter::TiledSegmenter(Algorithm algorithm, SlicParams params,
                               TiledConfig config)
    : algorithm_(algorithm), params_(params), config_(config) {
  SSLIC_CHECK(params_.num_superpixels >= 1);
  SSLIC_CHECK(params_.compactness > 0.0);
  SSLIC_CHECK(params_.max_iterations >= 1);
  if (algorithm_ == Algorithm::kSlic) params_.subsample_ratio = 1.0;
}

std::size_t TiledSegmenter::store_bytes_estimate(int width, int height) const {
  const auto n =
      static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  const bool needs_min_dist =
      algorithm_ == Algorithm::kSslicCpa &&
      SubsetSchedule::from_ratio(params_.subsample_ratio).count() > 1;
  // 3 float Lab planes + 2 label planes (+ optional min-dist plane);
  // page-rounding slop between planes is negligible at any size where the
  // estimate matters.
  return n * (needs_min_dist ? std::size_t{28} : std::size_t{20});
}

void TiledSegmenter::run_on_store(PlanarStore& store, Segmentation& result,
                                  Instrumentation* instrumentation,
                                  TiledStats* stats,
                                  const std::int32_t** final_labels) const {
  SSLIC_TRACE_SCOPE("tiled.segment");
  const TileGeometry geo =
      make_tile_geometry(store.width(), store.height(), config_);
  TiledRun run(algorithm_, params_, geo, store, *instrumentation, *stats);
  run.run(result, final_labels);
  publish_tiled_path(true);
  publish_tile_count(geo.num_tiles());
}

Segmentation TiledSegmenter::segment_lab(const LabImage& lab,
                                         Instrumentation* instrumentation,
                                         TiledStats* stats) const {
  SSLIC_CHECK(!lab.empty());
  const int w = lab.width();
  const int h = lab.height();
  const std::size_t n = lab.size();

  if (!config_.force_tiled &&
      n * kMonolithicBytesPerPixel <= config_.memory_budget_bytes) {
    publish_tiled_path(false);
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      SSLIC_WARN("tiled segmentation: "
                 << w << "x" << h << " fits the "
                 << (config_.memory_budget_bytes >> 20)
                 << " MiB budget; delegating to the monolithic path (set "
                    "force_tiled to tile anyway)");
    }
    if (stats != nullptr) {
      *stats = TiledStats{};
      stats->used_tiled_path = false;
      stats->peak_rss = peak_rss_bytes();
    }
    return run_segmenter_lab(algorithm_, params_, lab, DataWidth::float64(), {},
                             instrumentation);
  }

  const bool needs_min_dist =
      algorithm_ == Algorithm::kSslicCpa &&
      SubsetSchedule::from_ratio(params_.subsample_ratio).count() > 1;
  PlanarStore store;
  store.open(w, h, needs_min_dist,
             {config_.spill_to_disk, config_.spill_dir});
  parallel_for(0, h, [&](std::int64_t ylo, std::int64_t yhi) {
    const std::size_t begin =
        static_cast<std::size_t>(ylo) * static_cast<std::size_t>(w);
    const std::size_t count =
        static_cast<std::size_t>(yhi - ylo) * static_cast<std::size_t>(w);
    std::copy_n(lab.L.data() + begin, count, store.lab_l() + begin);
    std::copy_n(lab.a.data() + begin, count, store.lab_a() + begin);
    std::copy_n(lab.b.data() + begin, count, store.lab_b() + begin);
  });

  Segmentation result;
  Instrumentation local_instr;
  Instrumentation& instr =
      instrumentation != nullptr ? *instrumentation : local_instr;
  TiledStats local_stats;
  TiledStats& st = stats != nullptr ? *stats : local_stats;
  st = TiledStats{};
  const std::int32_t* final_labels = nullptr;
  run_on_store(store, result, &instr, &st, &final_labels);

  result.labels = LabelImage(w, h);
  std::memcpy(result.labels.pixels().data(), final_labels,
              n * sizeof(std::int32_t));
  return result;
}

void TiledSegmenter::segment_rows(LabRowSource& source, int width, int height,
                                  LabelRowSink* sink,
                                  std::vector<ClusterCenter>* centers_out,
                                  Instrumentation* instrumentation,
                                  TiledStats* stats) const {
  SSLIC_CHECK(width >= 2 && height >= 2);
  SSLIC_TRACE_SCOPE("tiled.segment_rows");

  const bool needs_min_dist =
      algorithm_ == Algorithm::kSslicCpa &&
      SubsetSchedule::from_ratio(params_.subsample_ratio).count() > 1;
  PlanarStore store;
  store.open(width, height, needs_min_dist,
             {config_.spill_to_disk, config_.spill_dir});
  float* pl = store.lab_l();
  float* pa = store.lab_a();
  float* pb = store.lab_b();
  for (int y0 = 0; y0 < height; y0 += kReleaseStride) {
    const int y1 = std::min(height, y0 + kReleaseStride);
    for (int y = y0; y < y1; ++y) {
      const std::size_t off =
          static_cast<std::size_t>(y) * static_cast<std::size_t>(width);
      source.fill_row(y, pl + off, pa + off, pb + off, width);
    }
    store.release_rows(y0, y1);
  }

  Segmentation result;
  Instrumentation local_instr;
  Instrumentation& instr =
      instrumentation != nullptr ? *instrumentation : local_instr;
  TiledStats local_stats;
  TiledStats& st = stats != nullptr ? *stats : local_stats;
  st = TiledStats{};
  const std::int32_t* final_labels = nullptr;
  run_on_store(store, result, &instr, &st, &final_labels);

  if (sink != nullptr) {
    for (int y0 = 0; y0 < height; y0 += kReleaseStride) {
      const int y1 = std::min(height, y0 + kReleaseStride);
      for (int y = y0; y < y1; ++y) {
        const std::size_t off =
            static_cast<std::size_t>(y) * static_cast<std::size_t>(width);
        sink->write_row(y, final_labels + off, width);
      }
      store.release_plane_rows(PlanarStore::Plane::kLabels, y0, y1);
      store.release_plane_rows(PlanarStore::Plane::kLabelsOut, y0, y1);
    }
  }
  if (centers_out != nullptr) *centers_out = std::move(result.centers);
}

}  // namespace sslic
