#include "color/color_convert.h"

#include <algorithm>
#include <cmath>

#include "color/color_kernels.h"
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

// Inverse gamma is a pure function of the 8-bit channel value; tabulating
// it is exact (not an approximation) and removes the pow() hotspot from
// the conversion phase.
const std::array<double, 256>& color_kernels::gamma_table() {
  static const std::array<double, 256> table = [] {
    std::array<double, 256> t{};
    for (int v = 0; v < 256; ++v)
      t[static_cast<std::size_t>(v)] = srgb_inverse_gamma(v / 255.0);
    return t;
  }();
  return table;
}

LabF srgb_to_lab(Rgb8 rgb) {
  const std::array<double, 256>& gamma = color_kernels::gamma_table();
  const double r = gamma[rgb.r];
  const double g = gamma[rgb.g];
  const double b = gamma[rgb.b];

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

namespace {

/// The reference row: srgb_to_lab(Rgb8) per pixel — the oracle every
/// vector row is checked against, and what SSLIC_SIMD=scalar runs.
std::int64_t reference_row(const Rgb8* src, std::int64_t count, float* L,
                           float* a, float* b) {
  for (std::int64_t i = 0; i < count; ++i) {
    const LabF px = srgb_to_lab(src[i]);
    L[i] = px.L;
    a[i] = px.a;
    b[i] = px.b;
  }
  return 0;
}

}  // namespace

LabRowKernel srgb_to_lab_row(simd::Isa isa) {
  switch (isa) {
    case simd::Isa::kAvx2:
#if defined(SSLIC_KERNELS_AVX2)
      return &color_kernels::srgb_to_lab_row_avx2;
#else
      break;
#endif
    case simd::Isa::kAvx512:
#if defined(SSLIC_KERNELS_AVX512)
      return &color_kernels::srgb_to_lab_row_avx512;
#else
      break;
#endif
    case simd::Isa::kScalar:
    case simd::Isa::kSse2:
    case simd::Isa::kNeon:
      break;
  }
  return &reference_row;
}

simd::Isa srgb_to_lab_isa() { return simd::active_isa(); }

double srgb_to_lab(const RgbImage& image, LabImage& lab) {
  trace::Interval stage;
  if (lab.width() != image.width() || lab.height() != image.height())
    lab = LabImage(image.width(), image.height());
  const LabRowKernel row = srgb_to_lab_row(srgb_to_lab_isa());
  const Rgb8* const src = image.data();
  float* const dl = lab.L.data();
  float* const da = lab.a.data();
  float* const db = lab.b.data();
  // Pure per-pixel map, and every row kernel writes the reference's floats:
  // identical output for any range partition and any ISA.
  parallel_for(0, static_cast<std::int64_t>(image.size()),
               [&](std::int64_t lo, std::int64_t hi) {
                 SSLIC_TRACE_SCOPE_AT(1, "color.srgb_to_lab.chunk", lo);
                 const auto off = static_cast<std::size_t>(lo);
                 row(src + off, hi - lo, dl + off, da + off, db + off);
               });
  return stage.complete("color.srgb_to_lab");
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
