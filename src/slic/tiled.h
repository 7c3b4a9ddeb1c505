// Out-of-core tiled segmentation driver (DESIGN.md §4h).
//
// `TiledSegmenter` decomposes an arbitrarily large input into rectangular
// tiles and runs the shared iteration core (slic/iteration.h) over the
// memory-mapped planes of a PlanarStore, with the tile grid as the core's
// assignment regions. The process RSS stays bounded by the tiles in flight
// instead of the image: in spill mode every pass releases the resident
// pages of the rows it has finished with (PlanarStore::release_rows), so a
// gigapixel input segments inside a few-hundred-megabyte budget
// (bench/tiled_streaming gates the bound).
//
// Identity contract: labels and centers are byte-identical to the
// monolithic segmenters (CpaSlic / PpaSlic at float64 width) whenever both
// can run, because both run the same core and the core's output does not
// depend on its region grid (slic/iteration.h gives the argument). Centers
// whose windows span several tiles are re-fetched per tile; that halo
// traffic is the only cost of tiling and is tracked in
// TiledStats::halo_bytes. Cross-tile label seams are resolved by the
// monolithic path's own connectivity pass (slic/connectivity.h), run in
// place over the label plane with its run records laid over the dead Lab
// planes and its pages released behind every cursor.
//
// The PPA path is float64-only (the bit-width exploration stays on the
// in-memory path).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "image/planar_store.h"
#include "slic/instrumentation.h"
#include "slic/segmenter.h"
#include "slic/types.h"

namespace sslic {

/// Tiling and memory-policy knobs of one TiledSegmenter.
struct TiledConfig {
  /// Tile geometry in pixels; <= 0 derives it from `memory_budget_bytes`
  /// and the pool size (the tiles the pool holds in flight must fit).
  /// Honoured literally otherwise (the last row /
  /// column of tiles keeps the remainder, down to a single pixel).
  int tile_width = 0;
  int tile_height = 0;

  /// Working-set target. segment_lab falls back to the monolithic
  /// segmenter when the image fits this budget (unless force_tiled); the
  /// auto tile size is derived from it.
  std::size_t memory_budget_bytes = std::size_t{512} << 20;

  /// Run the tiled path even when the image fits the budget (identity
  /// tests and benches).
  bool force_tiled = false;

  /// Back the planes with an unlinked spill file and release finished row
  /// bands (bounded RSS). Off = anonymous memory, releases are no-ops.
  bool spill_to_disk = false;
  /// Spill file directory; empty = $TMPDIR or /tmp.
  std::string spill_dir;
};

/// Per-run observability of the tiled driver.
struct TiledStats {
  bool used_tiled_path = false;  ///< false = monolithic fallback ran
  int tiles_x = 0;
  int tiles_y = 0;
  /// Center/candidate state re-fetched by tiles beyond the first one a
  /// window spans, summed over iterations — the halo-exchange traffic.
  std::uint64_t halo_bytes = 0;
  /// Analytic DRAM bytes per iteration (Instrumentation convention).
  std::uint64_t bytes_per_iteration = 0;
  std::size_t store_bytes = 0;   ///< mapped plane bytes
  std::size_t peak_rss = 0;      ///< getrusage peak RSS after the run
  int final_label_count = 0;
};

/// Parses a "WxH" tile spec (e.g. "512x256"); "auto" (or "0") selects the
/// budget-derived geometry. Returns false on anything else.
bool parse_tile_spec(const std::string& text, int* tile_width, int* tile_height);

/// Row producer for the streaming entry: fill one row of the three Lab
/// channel planes. Called with ascending y, exactly once per row.
class LabRowSource {
 public:
  virtual ~LabRowSource() = default;
  virtual void fill_row(int y, float* L, float* a, float* b, int width) = 0;
};

/// Row consumer for the streaming entry: receives final labels row by row
/// (ascending y). The pointer is only valid during the call.
class LabelRowSink {
 public:
  virtual ~LabelRowSink() = default;
  virtual void write_row(int y, const std::int32_t* labels, int width) = 0;
};

/// Bounded-memory tiled segmentation driver. kSlic forces subsample_ratio
/// to 1 (as run_segmenter does); kSslicCpa / kSslicPpa follow the params.
class TiledSegmenter {
 public:
  TiledSegmenter(Algorithm algorithm, SlicParams params, TiledConfig config = {});

  /// In-memory entry. Labels and centers are byte-identical to
  /// run_segmenter_lab at float64 width. When the image fits
  /// `memory_budget_bytes` and `force_tiled` is off, delegates to the
  /// monolithic segmenter (one WARN per process + the sslic.tiled.path
  /// gauge record the fallback).
  Segmentation segment_lab(const LabImage& lab,
                           Instrumentation* instrumentation = nullptr,
                           TiledStats* stats = nullptr) const;

  /// Streaming entry: rows in through `source`, final labels out through
  /// `sink` (null = discard), nothing image-sized materialized on the heap.
  /// Always runs the tiled path; with `spill_to_disk` the peak RSS stays
  /// bounded by the tile working set.
  void segment_rows(LabRowSource& source, int width, int height,
                    LabelRowSink* sink,
                    std::vector<ClusterCenter>* centers_out = nullptr,
                    Instrumentation* instrumentation = nullptr,
                    TiledStats* stats = nullptr) const;

  [[nodiscard]] const SlicParams& params() const { return params_; }
  [[nodiscard]] const TiledConfig& config() const { return config_; }
  [[nodiscard]] Algorithm algorithm() const { return algorithm_; }

  /// Plane bytes the tiled path would map for a WxH input (the quantity
  /// compared against memory_budget_bytes for the fallback decision is the
  /// monolithic estimate; this one sizes the store).
  [[nodiscard]] std::size_t store_bytes_estimate(int width, int height) const;

 private:
  void run_on_store(PlanarStore& store, Segmentation& result,
                    Instrumentation* instrumentation, TiledStats* stats) const;

  Algorithm algorithm_;
  SlicParams params_;
  TiledConfig config_;
};

}  // namespace sslic
