#include "slic/tiled.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/logging.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "slic/connectivity.h"
#include "slic/distance.h"
#include "slic/grid.h"
#include "slic/iteration.h"
#include "slic/subset_schedule.h"

namespace sslic {
namespace {

/// Monolithic working-set estimate (bytes/pixel) for the fallback decision:
/// Lab planes (12) + labels (4) + subsampled CPA's min-distance plane (8;
/// full SLIC keeps its minima per region and PPA keeps none) + connectivity
/// run records (<= 12: reserved for one run per pixel, paged in only as
/// they are written). Seeding probes the gradient, so no gradient plane.
constexpr std::size_t kMonolithicBytesPerPixel = 36;

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

/// Subsampled CPA is the one variant that keeps an image-sized
/// min-distance plane across iterations.
bool needs_min_dist(Algorithm algorithm, const SlicParams& params) {
  return algorithm == Algorithm::kSslicCpa &&
         SubsetSchedule::from_ratio(params.subsample_ratio).count() > 1;
}

/// The literal tile partition: tiles of tile_w x tile_h with the remainder
/// in the last row/column (down to a single pixel).
struct TileGeometry {
  int tile_w = 0;
  int tile_h = 0;
  int tiles_x = 0;
  int tiles_y = 0;

  [[nodiscard]] int num_tiles() const { return tiles_x * tiles_y; }
};

TileGeometry make_tile_geometry(int w, int h, const TiledConfig& config,
                                bool min_dist_plane) {
  int tw = config.tile_width;
  int th = config.tile_height;
  if (tw <= 0 || th <= 0) {
    // Budget-derived square-ish tile. The pool assigns up to `threads`
    // tiles at once, each with ~28 B/px of working set (Lab rows, labels,
    // its region-local min-distance scratch); keep all of them to about a
    // quarter of the budget.
    const std::size_t threads =
        ThreadPool::in_parallel_region()
            ? 1
            : static_cast<std::size_t>(ThreadPool::global().threads());
    constexpr std::size_t kTileBytesPerPixel = 28;
    const std::size_t target_px = std::max<std::size_t>(
        std::size_t{256} * 256,
        config.memory_budget_bytes / (kTileBytesPerPixel * 4 * threads));
    const int side =
        std::max(64, static_cast<int>(std::sqrt(static_cast<double>(target_px))));
    if (tw <= 0) tw = side;
    if (th <= 0) th = side;
    // Full-width row bands are released only once every tile of a tile row
    // has finished, and `threads` consecutive tiles straddle up to
    // ceil((threads - 1) / tiles_x) + 1 tile rows. Cap the auto tile height
    // so the rows in flight — w x tile_h x 16 B each (Lab + labels; 24 B
    // with the min-distance plane) — stay within half the budget; at
    // gigapixel widths the square side above would blow straight through
    // it.
    if (config.tile_height <= 0) {
      const int cols_w = std::min(tw, w);
      const auto tiles_x = static_cast<std::size_t>((w + cols_w - 1) / cols_w);
      const std::size_t rows_in_flight = (threads - 1 + tiles_x - 1) / tiles_x + 1;
      const std::size_t row_band_bytes =
          static_cast<std::size_t>(w) * (min_dist_plane ? 24 : 16) * rows_in_flight;
      const std::size_t cap = config.memory_budget_bytes / 2 / row_band_bytes;
      th = std::max(1, std::min(th, static_cast<int>(std::min<std::size_t>(
                                        cap, std::size_t{1} << 20))));
    }
  }
  TileGeometry g;
  g.tile_w = std::clamp(tw, 1, w);
  g.tile_h = std::clamp(th, 1, h);
  g.tiles_x = (w + g.tile_w - 1) / g.tile_w;
  g.tiles_y = (h + g.tile_h - 1) / g.tile_h;
  return g;
}

void release_store_rows(void* store, int y0, int y1) {
  static_cast<PlanarStore*>(store)->release_rows(y0, y1);
}

void release_store_bytes(void* store, const void* begin, const void* end) {
  static_cast<PlanarStore*>(store)->release_bytes(begin, end);
}

/// One tiled segmentation over an open PlanarStore: the shared iteration
/// core (slic/iteration.h) over the store's planes and the tile grid, then
/// the shared connectivity pass, in place over the label plane.
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
        grid_(store.width(), store.height(), params.num_superpixels) {}

  void run(Segmentation& result) {
    instr_ = Instrumentation{};
    result.centers.clear();

    trace::Interval init_stage;  // the core ends it once set up
    PlaneView planes;
    planes.width = store_.width();
    planes.height = store_.height();
    planes.L = store_.lab_l();
    planes.a = store_.lab_a();
    planes.b = store_.lab_b();
    planes.labels = store_.labels();
    planes.min_dist = store_.min_dist();
    if (store_.disk_backed()) {
      planes.release = &release_store_rows;
      planes.release_context = &store_;
    }
    const RegionGrid regions{geo_.tile_w, geo_.tile_h, &stats_.halo_bytes};
    if (algorithm_ == Algorithm::kSslicPpa) {
      const DistanceCalculator dist(params_.compactness, grid_.spacing());
      run_ppa(planes, regions, params_, dist, nullptr, init_stage, result,
              scratch_, instr_);
    } else {
      run_cpa(planes, regions, params_, init_stage, result, scratch_, instr_);
    }
    finalize();

    stats_.used_tiled_path = true;
    stats_.tiles_x = geo_.tiles_x;
    stats_.tiles_y = geo_.tiles_y;
    stats_.bytes_per_iteration =
        static_cast<std::uint64_t>(instr_.traffic_bytes_per_iteration());
    stats_.store_bytes = store_.bytes_mapped();
    stats_.peak_rss = peak_rss_bytes();
  }

 private:
  // Relabels the label plane in place.
  void finalize() {
    const int h = store_.height();
    if (!params_.enforce_connectivity) {
      stats_.final_label_count = grid_.num_centers();
      return;
    }
    trace::Interval connectivity_stage;
    // The Lab and min-distance planes are dead from here on; the pass
    // refaults the label rows it reads. The run records reuse the Lab
    // planes: 12 bytes per pixel, one record each.
    store_.release_rows(0, h);
    static_assert(sizeof(ConnectivityScratch::Run) == 3 * sizeof(float));
    std::vector<std::int32_t> row_begin(static_cast<std::size_t>(h) + 1);
    ConnectivityPlanes planes;
    planes.labels = store_.labels();
    planes.width = store_.width();
    planes.height = h;
    planes.runs = reinterpret_cast<ConnectivityScratch::Run*>(store_.lab_l());
    planes.row_begin = row_begin.data();
    if (store_.disk_backed()) {
      planes.release = &release_store_bytes;
      planes.release_context = &store_;
      // Root lookups reach back about one superpixel window.
      planes.look_back =
          2 * std::max(1, static_cast<int>(std::lround(grid_.spacing()))) + 2;
    }
    const ConnectivityResult conn =
        enforce_connectivity(planes, params_.num_superpixels);
    stats_.final_label_count = conn.final_label_count;
    instr_.final_label_count = static_cast<std::uint64_t>(conn.final_label_count);
    instr_.pixels_relabelled = conn.pixels_moved;
    instr_.connectivity_ms += connectivity_stage.complete("tiled.connectivity");
  }

  const Algorithm algorithm_;
  const SlicParams& params_;
  const TileGeometry geo_;
  PlanarStore& store_;
  Instrumentation& instr_;
  TiledStats& stats_;
  const CenterGrid grid_;
  IterationScratch scratch_;
};

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
  // 3 float Lab planes + the label plane (+ optional min-dist plane);
  // page-rounding slop between planes is negligible at any size where the
  // estimate matters.
  return n * (needs_min_dist(algorithm_, params_) ? std::size_t{24}
                                                  : std::size_t{16});
}

void TiledSegmenter::run_on_store(PlanarStore& store, Segmentation& result,
                                  Instrumentation* instrumentation,
                                  TiledStats* stats) const {
  SSLIC_TRACE_SCOPE("tiled.segment");
  const TileGeometry geo =
      make_tile_geometry(store.width(), store.height(), config_,
                         store.min_dist() != nullptr);
  TiledRun run(algorithm_, params_, geo, store, *instrumentation, *stats);
  run.run(result);
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

  PlanarStore store;
  store.open(w, h, needs_min_dist(algorithm_, params_),
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
  run_on_store(store, result, &instr, &st);

  result.labels = LabelImage(w, h);
  std::memcpy(result.labels.pixels().data(), store.labels(),
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

  PlanarStore store;
  store.open(width, height, needs_min_dist(algorithm_, params_),
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
  run_on_store(store, result, &instr, &st);

  if (sink != nullptr) {
    for (int y0 = 0; y0 < height; y0 += kReleaseStride) {
      const int y1 = std::min(height, y0 + kReleaseStride);
      for (int y = y0; y < y1; ++y) {
        const std::size_t off =
            static_cast<std::size_t>(y) * static_cast<std::size_t>(width);
        sink->write_row(y, store.labels() + off, width);
      }
      store.release_plane_rows(PlanarStore::Plane::kLabels, y0, y1);
    }
  }
  if (centers_out != nullptr) *centers_out = std::move(result.centers);
}

}  // namespace sslic
