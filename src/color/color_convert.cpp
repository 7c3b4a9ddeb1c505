#include "color/color_convert.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "common/trace.h"

namespace sslic {

double srgb_inverse_gamma(double encoded) {
  if (encoded <= 0.04045) return encoded / 12.92;
  return std::pow((encoded + 0.055) / 1.055, 2.4);
}

double lab_f(double t) {
  if (t > kLabEpsilon) return std::cbrt(t);
  return (kLabKappa * t + 16.0) / 116.0;
}

namespace {

// Inverse gamma is a pure function of the 8-bit channel value; tabulating
// it is exact (not an approximation) and removes the pow() hotspot from
// the conversion phase.
const std::array<double, 256>& gamma_table() {
  static const std::array<double, 256> table = [] {
    std::array<double, 256> t{};
    for (int v = 0; v < 256; ++v)
      t[static_cast<std::size_t>(v)] = srgb_inverse_gamma(v / 255.0);
    return t;
  }();
  return table;
}

}  // namespace

LabF srgb_to_lab(Rgb8 rgb) {
  const double r = gamma_table()[rgb.r];
  const double g = gamma_table()[rgb.g];
  const double b = gamma_table()[rgb.b];

  const double x = kSrgbToXyz[0] * r + kSrgbToXyz[1] * g + kSrgbToXyz[2] * b;
  const double y = kSrgbToXyz[3] * r + kSrgbToXyz[4] * g + kSrgbToXyz[5] * b;
  const double z = kSrgbToXyz[6] * r + kSrgbToXyz[7] * g + kSrgbToXyz[8] * b;

  const double fx = lab_f(x / kReferenceWhite[0]);
  const double fy = lab_f(y / kReferenceWhite[1]);
  const double fz = lab_f(z / kReferenceWhite[2]);

  LabF lab;
  lab.L = static_cast<float>(116.0 * fy - 16.0);
  lab.a = static_cast<float>(500.0 * (fx - fy));
  lab.b = static_cast<float>(200.0 * (fy - fz));
  return lab;
}

LabImage srgb_to_lab(const RgbImage& image) {
  LabImage lab;
  srgb_to_lab(image, lab);
  return lab;
}

void srgb_to_lab(const RgbImage& image, LabImage& lab) {
  SSLIC_TRACE_SCOPE("color.srgb_to_lab");
  if (lab.width() != image.width() || lab.height() != image.height())
    lab = LabImage(image.width(), image.height());
  // Pure per-pixel map: identical output for any range partition.
  parallel_for(0, static_cast<std::int64_t>(image.size()),
               [&](std::int64_t lo, std::int64_t hi) {
                 SSLIC_TRACE_SCOPE_AT(1, "color.srgb_to_lab.chunk", lo);
                 for (std::int64_t i = lo; i < hi; ++i) {
                   const auto idx = static_cast<std::size_t>(i);
                   lab.pixels()[idx] = srgb_to_lab(image.pixels()[idx]);
                 }
               });
}

namespace {

double lab_f_inverse(double f) {
  const double f3 = f * f * f;
  if (f3 > kLabEpsilon) return f3;
  return (116.0 * f - 16.0) / kLabKappa;
}

double srgb_forward_gamma(double linear) {
  if (linear <= 0.0031308) return 12.92 * linear;
  return 1.055 * std::pow(linear, 1.0 / 2.4) - 0.055;
}

std::uint8_t to_byte(double channel) {
  const double clamped = std::clamp(channel, 0.0, 1.0);
  return static_cast<std::uint8_t>(std::lround(clamped * 255.0));
}

}  // namespace

Rgb8 lab_to_srgb(const LabF& lab) {
  const double fy = (static_cast<double>(lab.L) + 16.0) / 116.0;
  const double fx = fy + static_cast<double>(lab.a) / 500.0;
  const double fz = fy - static_cast<double>(lab.b) / 200.0;

  const double x = kReferenceWhite[0] * lab_f_inverse(fx);
  const double y = kReferenceWhite[1] * lab_f_inverse(fy);
  const double z = kReferenceWhite[2] * lab_f_inverse(fz);

  // Inverse of kSrgbToXyz (sRGB D65).
  const double r = 3.2404542 * x - 1.5371385 * y - 0.4985314 * z;
  const double g = -0.9692660 * x + 1.8760108 * y + 0.0415560 * z;
  const double b = 0.0556434 * x - 0.2040259 * y + 1.0572252 * z;

  return {to_byte(srgb_forward_gamma(r)), to_byte(srgb_forward_gamma(g)),
          to_byte(srgb_forward_gamma(b))};
}

}  // namespace sslic
