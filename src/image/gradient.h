// Image gradients for SLIC center perturbation (paper Section 2: each
// initial superpixel center is moved to the lowest-gradient position in its
// 3x3 neighbourhood so it does not start on an edge or a noisy pixel).
#pragma once

#include <algorithm>
#include <cstddef>

#include "image/image.h"

namespace sslic {

/// Squared CIELAB gradient magnitude of pixel (x, y) of three row-major
/// w x h planes: G(x,y) = |I(x+1,y) - I(x-1,y)|^2 + |I(x,y+1) - I(x,y-1)|^2
/// where |.| is the L2 norm over (L,a,b), border neighbours clamped to the
/// edge. The one per-pixel expression behind both lab_gradient_magnitude
/// and argmin_gradient_probe, so the two cannot differ by a float operation.
inline float lab_gradient_at(const float* L, const float* a, const float* b,
                             int w, int h, int x, int y) {
  const auto stride = static_cast<std::size_t>(w);
  const std::size_t row = static_cast<std::size_t>(y) * stride;
  const std::size_t up = static_cast<std::size_t>(std::max(y - 1, 0)) * stride;
  const std::size_t down =
      static_cast<std::size_t>(std::min(y + 1, h - 1)) * stride;
  const std::size_t xp = row + static_cast<std::size_t>(std::min(x + 1, w - 1));
  const std::size_t xm = row + static_cast<std::size_t>(std::max(x - 1, 0));
  const std::size_t yp = down + static_cast<std::size_t>(x);
  const std::size_t ym = up + static_cast<std::size_t>(x);
  const float dx_l = L[xp] - L[xm], dx_a = a[xp] - a[xm], dx_b = b[xp] - b[xm];
  const float dy_l = L[yp] - L[ym], dy_a = a[yp] - a[ym], dy_b = b[yp] - b[ym];
  return dx_l * dx_l + dx_a * dx_a + dx_b * dx_b + dy_l * dy_l + dy_a * dy_a +
         dy_b * dy_b;
}

/// The full gradient plane, lab_gradient_at at every pixel: the tests'
/// reference for argmin_gradient_probe (seeding never builds it).
Image<float> lab_gradient_magnitude(const LabImage& lab);

/// Luminance Sobel gradient magnitude (utility; used by examples and the
/// dataset generator's self-checks).
Image<float> sobel_magnitude(const Image<std::uint8_t>& grey);

/// Returns the position of the minimum of `gradient` within the 3x3
/// neighbourhood of (x, y), clamped to the image interior.
struct Point {
  int x = 0;
  int y = 0;
  friend bool operator==(const Point&, const Point&) = default;
};
Point argmin_gradient_3x3(const Image<float>& gradient, int x, int y);

/// argmin_gradient_3x3(lab_gradient_magnitude(lab), x, y) over three
/// row-major w x h Lab planes, evaluating the gradient only at the 3x3
/// pixels it compares — no image-sized gradient plane.
Point argmin_gradient_probe(const float* L, const float* a, const float* b,
                            int w, int h, int x, int y);

}  // namespace sslic
