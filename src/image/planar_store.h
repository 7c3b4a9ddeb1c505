// Out-of-core planar pixel store for the tiled segmentation driver.
//
// The monolithic segmenters materialize every working plane (Lab channel
// planes, label map, min-distance buffer) as heap vectors — ~28 bytes per
// pixel, which caps the input size at available RAM. `PlanarStore` provides
// the same planes as flat row-major rasters backed either by anonymous
// memory (fits-in-memory mode; behaves exactly like the heap buffers) or by
// an unlinked temporary file mapped MAP_SHARED (spill mode). In spill mode
// `release_rows` drops the resident pages of processed row bands with
// madvise(MADV_DONTNEED) — data persists in the page cache / on disk and
// refaults transparently, so the process RSS stays bounded by the tile
// working set rather than the image size (the bound bench/tiled_streaming
// gates with getrusage).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace sslic {

/// Flat planar backing of one tiled segmentation run: three float Lab
/// channel planes, two int32 label planes (working + connectivity output),
/// and an optional double min-distance plane. All planes share one mapping
/// and are laid out as full-width row-major rasters, so kernel calls use
/// the same `base + y*w + x` addressing as the in-memory path.
class PlanarStore {
 public:
  struct Config {
    /// Back the planes with an unlinked temporary file and enable
    /// release_rows. Off = anonymous memory (plain RAM, release is a no-op).
    bool spill_to_disk = false;
    /// Directory for the spill file; empty = $TMPDIR or /tmp.
    std::string spill_dir;
  };

  PlanarStore() = default;
  ~PlanarStore();

  PlanarStore(const PlanarStore&) = delete;
  PlanarStore& operator=(const PlanarStore&) = delete;

  /// Maps planes for a width x height raster. `with_min_dist` adds the
  /// 8-byte-per-pixel persistent minimum-distance plane (subsampled CPA and
  /// PPA need it; full-SLIC CPA keeps its running minima in per-tile
  /// scratch instead). Throws on mapping failure.
  void open(int width, int height, bool with_min_dist, const Config& config);
  void open(int width, int height, bool with_min_dist) {
    open(width, height, with_min_dist, Config{});
  }
  void close();

  [[nodiscard]] bool is_open() const { return base_ != nullptr; }
  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] bool disk_backed() const { return disk_backed_; }
  /// Total mapped bytes across all planes.
  [[nodiscard]] std::size_t bytes_mapped() const { return total_bytes_; }

  [[nodiscard]] float* lab_l() { return lab_l_; }
  [[nodiscard]] float* lab_a() { return lab_a_; }
  [[nodiscard]] float* lab_b() { return lab_b_; }
  [[nodiscard]] std::int32_t* labels() { return labels_; }
  /// Second label plane: the flood-fill connectivity pass
  /// (enforce_connectivity_span) writes its relabelled output here.
  [[nodiscard]] std::int32_t* labels_out() { return labels_out_; }
  /// Null unless opened with `with_min_dist`.
  [[nodiscard]] double* min_dist() { return min_dist_; }

  /// Drops the resident pages of rows [y0, y1) in every plane (disk-backed
  /// stores only; a no-op for anonymous memory, where DONTNEED would zero
  /// the data). Page-interior boundaries are rounded inward, so rows shared
  /// with a neighbouring band stay resident until that band releases them.
  void release_rows(int y0, int y1);

  /// release_rows for one plane only (e.g. drop Lab rows while the label
  /// planes are still being drained).
  enum class Plane { kLabL, kLabA, kLabB, kLabels, kLabelsOut, kMinDist };
  void release_plane_rows(Plane plane, int y0, int y1);

 private:
  void release_range(const std::byte* begin, const std::byte* end);
  [[nodiscard]] std::byte* plane_base(Plane plane, std::size_t* elem_size) const;

  std::byte* base_ = nullptr;
  std::size_t total_bytes_ = 0;
  int width_ = 0;
  int height_ = 0;
  bool disk_backed_ = false;

  float* lab_l_ = nullptr;
  float* lab_a_ = nullptr;
  float* lab_b_ = nullptr;
  std::int32_t* labels_ = nullptr;
  std::int32_t* labels_out_ = nullptr;
  double* min_dist_ = nullptr;
};

/// Peak resident set size of this process so far (getrusage ru_maxrss),
/// in bytes. The tiled streaming bench gates on it; 0 if unavailable.
std::size_t peak_rss_bytes();

}  // namespace sslic
