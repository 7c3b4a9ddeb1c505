#include "slic/grid.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "image/gradient.h"
#include "slic/iteration.h"

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

void seed_centers(const CenterGrid& grid, const PlaneView& planes,
                  bool perturb_to_gradient_minimum,
                  std::vector<ClusterCenter>& centers) {
  const int w = grid.width();
  const int h = grid.height();
  SSLIC_CHECK(planes.width == w && planes.height == h);
  centers.resize(static_cast<std::size_t>(grid.num_centers()));
  int released = 0;
  for (int gy = 0; gy < grid.ny(); ++gy) {
    const int row_y = std::clamp(static_cast<int>(grid.center_pos_y(gy)), 0, h - 1);
    for (int gx = 0; gx < grid.nx(); ++gx) {
      int px = std::clamp(static_cast<int>(grid.center_pos_x(gx)), 0, w - 1);
      int py = row_y;
      if (perturb_to_gradient_minimum) {
        const Point p =
            argmin_gradient_probe(planes.L, planes.a, planes.b, w, h, px, py);
        px = p.x;
        py = p.y;
      }
      const LabF color = planes.lab(planes.offset(px, py));
      ClusterCenter& c =
          centers[static_cast<std::size_t>(grid.center_index(gx, gy))];
      c = {static_cast<double>(color.L), static_cast<double>(color.a),
           static_cast<double>(color.b), static_cast<double>(px),
           static_cast<double>(py)};
    }
    // This grid row's probes reach clamp(row_y, 1, h-2) + 2 at most, and
    // the next row's start below, so the rows above row_y + 3 are done.
    // Without the release the scattered probe faults — each inflated by
    // the kernel's fault-around readahead on file mappings — would leave a
    // large fraction of out-of-core Lab planes resident before the first
    // iteration starts.
    planes.release_behind(released, std::min(h, row_y + 3));
  }
  planes.release_rows(released, h);
}

std::vector<ClusterCenter> seed_centers(const CenterGrid& grid,
                                        const LabImage& lab,
                                        bool perturb_to_gradient_minimum) {
  std::vector<ClusterCenter> centers;
  seed_centers(grid, PlaneView::of(lab), perturb_to_gradient_minimum, centers);
  return centers;
}

void seed_centers(const CenterGrid& grid, const LabImage& lab,
                  bool perturb_to_gradient_minimum,
                  std::vector<ClusterCenter>& centers,
                  Image<float>& /*gradient_scratch*/) {
  seed_centers(grid, PlaneView::of(lab), perturb_to_gradient_minimum, centers);
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
  LabelImage labels(grid.width(), grid.height());
  PlaneView view;
  view.width = grid.width();
  view.height = grid.height();
  view.labels = labels.pixels().data();
  fill_initial_labels(grid, view);
  return labels;
}

}  // namespace sslic
