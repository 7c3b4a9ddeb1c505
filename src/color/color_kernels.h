// Per-ISA row kernels of the image-level sRGB -> CIELAB conversion.
// Internal to sslic_color — callers go through srgb_to_lab_row() /
// srgb_to_lab(image, lab) in color_convert.h.
//
// Output contract (differs from the assignment kernels'): every float a
// kernel writes equals the float srgb_to_lab(Rgb8) writes for that pixel,
// byte for byte — the same *rounded float*, not the same operation
// sequence. The kernels compute the reference's gamma lookups, XYZ matrix,
// white-point divides, linear branch and final L/a/b expressions with the
// same IEEE operations, but replace std::cbrt with a Newton/Halley cube
// root that can differ from it by a few ulps in double. A guard catches
// every lane where that could change the rounded float: when any of its
// L/a/b doubles v has (float)(v - 1e-12) != (float)(v + 1e-12), the pixel
// is recomputed by srgb_to_lab(Rgb8). RGB input has only 2^24 values, so
// tests/test_color.cpp proves the contract over the whole input domain for
// every compiled backend (and counts the guard's fallbacks).
#pragma once

#include <array>
#include <cstdint>

#include "image/image.h"

namespace sslic::color_kernels {

/// Inverse gamma of every 8-bit channel value: srgb_inverse_gamma(v / 255)
/// tabulated, which is exact. The reference and the kernels read this one
/// table.
const std::array<double, 256>& gamma_table();

/// Row kernel signature (see LabRowKernel in color_convert.h): converts
/// `count` pixels into the three planes and returns how many the guard
/// handed to srgb_to_lab(Rgb8).
#if defined(SSLIC_KERNELS_AVX2)
std::int64_t srgb_to_lab_row_avx2(const Rgb8* src, std::int64_t count,
                                  float* L, float* a, float* b);
#endif
#if defined(SSLIC_KERNELS_AVX512)
std::int64_t srgb_to_lab_row_avx512(const Rgb8* src, std::int64_t count,
                                    float* L, float* a, float* b);
#endif

}  // namespace sslic::color_kernels
