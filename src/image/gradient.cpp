#include "image/gradient.h"

#include <algorithm>
#include <cmath>

namespace sslic {

Image<float> lab_gradient_magnitude(const LabImage& lab) {
  Image<float> grad;
  lab_gradient_magnitude(lab, grad);
  return grad;
}

void lab_gradient_magnitude(const LabImage& lab, Image<float>& grad) {
  const int w = lab.width();
  const int h = lab.height();
  if (grad.width() != w || grad.height() != h) grad = Image<float>(w, h);
  const float* const pl = lab.L.data();
  const float* const pa = lab.a.data();
  const float* const pb = lab.b.data();
  const auto stride = static_cast<std::size_t>(w);
  for (int y = 0; y < h; ++y) {
    // Border neighbours clamp to the edge, as Span2d::at_clamped does.
    const std::size_t row = static_cast<std::size_t>(y) * stride;
    const std::size_t up = static_cast<std::size_t>(std::max(y - 1, 0)) * stride;
    const std::size_t down =
        static_cast<std::size_t>(std::min(y + 1, h - 1)) * stride;
    float* const out = grad.data() + row;
    for (int x = 0; x < w; ++x) {
      const std::size_t xp =
          row + static_cast<std::size_t>(std::min(x + 1, w - 1));
      const std::size_t xm = row + static_cast<std::size_t>(std::max(x - 1, 0));
      const std::size_t yp = down + static_cast<std::size_t>(x);
      const std::size_t ym = up + static_cast<std::size_t>(x);
      const float dx_l = pl[xp] - pl[xm], dx_a = pa[xp] - pa[xm],
                  dx_b = pb[xp] - pb[xm];
      const float dy_l = pl[yp] - pl[ym], dy_a = pa[yp] - pa[ym],
                  dy_b = pb[yp] - pb[ym];
      out[x] = dx_l * dx_l + dx_a * dx_a + dx_b * dx_b + dy_l * dy_l +
               dy_a * dy_a + dy_b * dy_b;
    }
  }
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

}  // namespace sslic
