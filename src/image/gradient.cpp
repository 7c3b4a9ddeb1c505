#include "image/gradient.h"

#include <algorithm>
#include <cmath>

namespace sslic {

Image<float> lab_gradient_magnitude(const LabImage& lab) {
  const int w = lab.width();
  const int h = lab.height();
  Image<float> grad(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      grad(x, y) = lab_gradient_at(lab.L.data(), lab.a.data(), lab.b.data(),
                                   w, h, x, y);
  return grad;
}

Image<float> sobel_magnitude(const Image<std::uint8_t>& grey) {
  const int w = grey.width();
  const int h = grey.height();
  Image<float> grad(w, h);
  const auto view = grey.view();
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const auto px = [&](int dx, int dy) {
        return static_cast<float>(view.at_clamped(x + dx, y + dy));
      };
      const float gx = (px(1, -1) + 2.0f * px(1, 0) + px(1, 1)) -
                       (px(-1, -1) + 2.0f * px(-1, 0) + px(-1, 1));
      const float gy = (px(-1, 1) + 2.0f * px(0, 1) + px(1, 1)) -
                       (px(-1, -1) + 2.0f * px(0, -1) + px(1, -1));
      grad(x, y) = std::sqrt(gx * gx + gy * gy);
    }
  }
  return grad;
}

Point argmin_gradient_3x3(const Image<float>& gradient, int x, int y) {
  const int w = gradient.width();
  const int h = gradient.height();
  // Clamp the centre so the full 3x3 window lies inside the image.
  const int cx = std::clamp(x, 1, std::max(1, w - 2));
  const int cy = std::clamp(y, 1, std::max(1, h - 2));
  Point best{cx, cy};
  float best_val = gradient(cx, cy);
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      const int nx = cx + dx;
      const int ny = cy + dy;
      if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
      if (gradient(nx, ny) < best_val) {
        best_val = gradient(nx, ny);
        best = {nx, ny};
      }
    }
  }
  return best;
}

Point argmin_gradient_probe(const float* L, const float* a, const float* b,
                            int w, int h, int x, int y) {
  // argmin_gradient_3x3's centre clamp and scan order; the centre needs no
  // second evaluation (its own value never compares strictly below).
  const int cx = std::clamp(x, 1, std::max(1, w - 2));
  const int cy = std::clamp(y, 1, std::max(1, h - 2));
  Point best{cx, cy};
  float best_val = lab_gradient_at(L, a, b, w, h, cx, cy);
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      const int nx = cx + dx;
      const int ny = cy + dy;
      if (nx < 0 || nx >= w || ny < 0 || ny >= h || (dx == 0 && dy == 0))
        continue;
      const float value = lab_gradient_at(L, a, b, w, h, nx, ny);
      if (value < best_val) {
        best_val = value;
        best = {nx, ny};
      }
    }
  }
  return best;
}

}  // namespace sslic
