// Superpixel center-grid initialization and the static 9-nearest-center
// tiling (paper Sections 2 and 4.3).
//
// Centers are seeded on a regular grid with spacing S = sqrt(N/K). The
// accelerator's PPA assigns each pixel a precomputed list of 9 candidate
// centers — the centers of the pixel's grid cell and its 8 neighbours —
// which is "the minimum number of nearest centers that can be considered to
// cover all possible pairs of center and pixel in the original CPA SLIC".
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "image/image.h"
#include "slic/types.h"

namespace sslic {

/// Regular initialization grid for K superpixels over a WxH image.
class CenterGrid {
 public:
  CenterGrid(int width, int height, int num_superpixels);

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int ny() const { return ny_; }
  /// Actual number of centers placed (nx*ny ≈ requested K).
  [[nodiscard]] int num_centers() const { return nx_ * ny_; }
  /// Grid interval S = sqrt(N/K) (paper Section 2).
  [[nodiscard]] double spacing() const { return spacing_; }

  /// Grid-cell coordinates containing pixel (x, y) (x*nx/w, y*ny/h): the
  /// cell whose center a pixel is initially labelled with.
  [[nodiscard]] int cell_x(int x) const;
  [[nodiscard]] int cell_y(int y) const;

  /// PPA assignment tile containing pixel (x, y): tile (gx, gy) spans
  /// columns [gx*w/nx, (gx+1)*w/nx) and rows [gy*h/ny, (gy+1)*h/ny). Not
  /// always the grid cell: the two partitions floor different products and
  /// disagree on boundary pixels whenever nx does not divide w (or ny, h).
  [[nodiscard]] int tile_column(int x) const;
  [[nodiscard]] int tile_row(int y) const;

  /// Flat center index of grid cell (gx, gy).
  [[nodiscard]] std::int32_t center_index(int gx, int gy) const;

  /// Ideal (pre-perturbation) center position of grid cell (gx, gy).
  [[nodiscard]] double center_pos_x(int gx) const;
  [[nodiscard]] double center_pos_y(int gy) const;

 private:
  int width_;
  int height_;
  int nx_;
  int ny_;
  double spacing_;
};

/// Initial cluster centers: grid positions with colors sampled from the Lab
/// image; optionally perturbed to the 3x3 gradient minimum (paper Sec. 2).
std::vector<ClusterCenter> seed_centers(const CenterGrid& grid,
                                        const LabImage& lab,
                                        bool perturb_to_gradient_minimum);

/// In-place variant: fills `centers` (resized to the grid's center count)
/// and uses `gradient_scratch` for the perturbation pass, so per-frame
/// callers (CPA engine streams, TemporalSlic cold starts) re-seed without
/// heap allocations once the buffers are warm.
void seed_centers(const CenterGrid& grid, const LabImage& lab,
                  bool perturb_to_gradient_minimum,
                  std::vector<ClusterCenter>& centers,
                  Image<float>& gradient_scratch);

/// The 9 candidate center indices of one tile (grid cell). Border tiles
/// clamp out-of-range neighbours, producing duplicate candidates — exactly
/// what the hardware's fixed 9-entry center registers do.
using CandidateList = std::array<std::int32_t, 9>;

/// Static tile -> 9-candidate map ("computed offline and stored in external
/// memory", paper Section 4.3). Tile (gx, gy) is stored at gy*nx + gx.
std::vector<CandidateList> build_candidate_map(const CenterGrid& grid);

/// Initial label map: every pixel starts assigned to the center of its own
/// grid cell (the accelerator initializes assignments before iterating).
LabelImage initial_labels(const CenterGrid& grid);

/// In-place variant: fills `labels`, resizing only when the dimensions
/// change (allocation-free at steady state).
void initial_labels(const CenterGrid& grid, LabelImage& labels);

}  // namespace sslic
