#include "slic/grid.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "image/gradient.h"

namespace sslic {

CenterGrid::CenterGrid(int width, int height, int num_superpixels)
    : width_(width), height_(height) {
  SSLIC_CHECK(width >= 2 && height >= 2);
  SSLIC_CHECK(num_superpixels >= 1);
  const double n = static_cast<double>(width) * static_cast<double>(height);
  spacing_ = std::sqrt(n / num_superpixels);
  nx_ = std::max(1, static_cast<int>(std::lround(width / spacing_)));
  ny_ = std::max(1, static_cast<int>(std::lround(height / spacing_)));
}

int CenterGrid::cell_x(int x) const {
  SSLIC_DCHECK(x >= 0 && x < width_);
  const auto gx = static_cast<int>(static_cast<std::int64_t>(x) * nx_ / width_);
  return std::min(gx, nx_ - 1);
}

int CenterGrid::cell_y(int y) const {
  SSLIC_DCHECK(y >= 0 && y < height_);
  const auto gy = static_cast<int>(static_cast<std::int64_t>(y) * ny_ / height_);
  return std::min(gy, ny_ - 1);
}

// The largest g whose span starts at or before x: g*w/nx <= x holds
// exactly when g*w <= (x+1)*nx - 1.
int CenterGrid::tile_column(int x) const {
  SSLIC_DCHECK(x >= 0 && x < width_);
  return static_cast<int>(
      ((static_cast<std::int64_t>(x) + 1) * nx_ - 1) / width_);
}

int CenterGrid::tile_row(int y) const {
  SSLIC_DCHECK(y >= 0 && y < height_);
  return static_cast<int>(
      ((static_cast<std::int64_t>(y) + 1) * ny_ - 1) / height_);
}

std::int32_t CenterGrid::center_index(int gx, int gy) const {
  SSLIC_DCHECK(gx >= 0 && gx < nx_ && gy >= 0 && gy < ny_);
  return static_cast<std::int32_t>(gy) * nx_ + gx;
}

double CenterGrid::center_pos_x(int gx) const {
  return (gx + 0.5) * static_cast<double>(width_) / nx_;
}

double CenterGrid::center_pos_y(int gy) const {
  return (gy + 0.5) * static_cast<double>(height_) / ny_;
}

std::vector<ClusterCenter> seed_centers(const CenterGrid& grid,
                                        const LabImage& lab,
                                        bool perturb_to_gradient_minimum) {
  std::vector<ClusterCenter> centers;
  Image<float> gradient;
  seed_centers(grid, lab, perturb_to_gradient_minimum, centers, gradient);
  return centers;
}

void seed_centers(const CenterGrid& grid, const LabImage& lab,
                  bool perturb_to_gradient_minimum,
                  std::vector<ClusterCenter>& centers,
                  Image<float>& gradient_scratch) {
  SSLIC_CHECK(lab.width() == grid.width() && lab.height() == grid.height());
  const Image<float>& gradient = gradient_scratch;
  if (perturb_to_gradient_minimum)
    lab_gradient_magnitude(lab, gradient_scratch);

  centers.resize(static_cast<std::size_t>(grid.num_centers()));
  for (int gy = 0; gy < grid.ny(); ++gy) {
    for (int gx = 0; gx < grid.nx(); ++gx) {
      int px = std::clamp(static_cast<int>(grid.center_pos_x(gx)), 0,
                          grid.width() - 1);
      int py = std::clamp(static_cast<int>(grid.center_pos_y(gy)), 0,
                          grid.height() - 1);
      if (perturb_to_gradient_minimum) {
        const Point p = argmin_gradient_3x3(gradient, px, py);
        px = p.x;
        py = p.y;
      }
      const LabF color = lab(px, py);
      ClusterCenter& c =
          centers[static_cast<std::size_t>(grid.center_index(gx, gy))];
      c = {static_cast<double>(color.L), static_cast<double>(color.a),
           static_cast<double>(color.b), static_cast<double>(px),
           static_cast<double>(py)};
    }
  }
}

std::vector<CandidateList> build_candidate_map(const CenterGrid& grid) {
  std::vector<CandidateList> map(
      static_cast<std::size_t>(grid.nx()) * static_cast<std::size_t>(grid.ny()));
  for (int gy = 0; gy < grid.ny(); ++gy) {
    for (int gx = 0; gx < grid.nx(); ++gx) {
      CandidateList& list =
          map[static_cast<std::size_t>(grid.center_index(gx, gy))];
      std::size_t slot = 0;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int cx = std::clamp(gx + dx, 0, grid.nx() - 1);
          const int cy = std::clamp(gy + dy, 0, grid.ny() - 1);
          list[slot++] = grid.center_index(cx, cy);
        }
      }
    }
  }
  return map;
}

LabelImage initial_labels(const CenterGrid& grid) {
  LabelImage labels;
  initial_labels(grid, labels);
  return labels;
}

void initial_labels(const CenterGrid& grid, LabelImage& labels) {
  const int w = grid.width();
  if (labels.width() != w || labels.height() != grid.height())
    labels = LabelImage(w, grid.height());
  // Row 0 holds each column's cell index; since center_index(gx, gy) is
  // gy*nx + gx, every other row is row 0 plus its cell row's offset. One
  // cell_x division per column instead of one per pixel.
  std::int32_t* const first = labels.pixels().data();
  for (int x = 0; x < w; ++x) first[x] = grid.center_index(grid.cell_x(x), 0);
  for (int y = 1; y < grid.height(); ++y) {
    const std::int32_t offset = grid.center_index(0, grid.cell_y(y));
    std::int32_t* const row =
        first + static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
    for (int x = 0; x < w; ++x) row[x] = first[x] + offset;
  }
}

}  // namespace sslic
