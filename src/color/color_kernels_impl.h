// Shared template of the sRGB -> CIELAB row kernels, instantiated once per
// vector ISA (color_kernels_{avx2,avx512}.cpp, both built -ffp-contract=off),
// so every vector backend computes the same doubles. The output contract —
// the reference's rounded floats, guarded — is in color_kernels.h.
//
// A backend `B` provides kLanes f64 lanes and:
//   VD / MD / VI        f64 vector, its comparison mask, i32 vector with
//                       kLanes lanes
//   load_rgb(p)         the 32-bit word at byte offset 3*lane of p (one
//                       gather; it reads one byte past the group's last
//                       pixel)
//   byte(w, shift)      (w >> shift) & 0xff per lane
//   gather(table, idx)  table[idx] per lane
//   set1/add/sub/mul/div/max, le(a, b) (a <= b mask), any(m),
//   select(m, a, b) = m ? a : b
//   bits_affine_f32(v, scale, offset)  narrows v to float, reads its bit
//                       pattern as an integer n, and returns (widened) the
//                       float whose bit pattern is the integer nearest
//                       scale * n + offset in float arithmetic
//   narrow_differs(a, b)  bit i set when lane i of a and b round to
//                       different floats
//   store_f32(p, v)     narrows v to float (round to nearest) and stores
//                       kLanes floats
#pragma once

#include <bit>
#include <cstdint>

#include "color/color_convert.h"
#include "color/color_kernels.h"

namespace sslic::color_kernels {

/// Bit-pattern constant of the float inverse-cube-root estimate
/// bits(t^-1/3) ~ K - bits(t) / 3 (the cube-root analogue of the
/// inverse-square-root trick): within 3.9% over [kLabEpsilon, 1.0001].
inline constexpr float kRcbrtMagic = static_cast<float>(0x54a2fa8c);

/// Half-width of the guard band around each float rounding boundary: a
/// lane whose L, a or b double lies this close to one is recomputed by
/// srgb_to_lab(Rgb8). It is three orders of magnitude wider than the
/// kernels' cube-root error (about 1 ulp of a double <= 1.0001, times at
/// most 500 in a).
inline constexpr double kRoundingGuard = 1e-12;

/// CIELAB f(t) (Eq. 4) per lane, matching lab_f() to within the guard:
/// t > kLabEpsilon takes a Newton/Halley cube root, the rest take the
/// reference's linear segment with its exact operations.
template <typename B>
typename B::VD lab_f_lanes(typename B::VD t) {
  const auto eps = B::set1(kLabEpsilon);
  const auto one = B::set1(1.0);
  const auto third = B::set1(1.0 / 3.0);
  // Cube root of max(t, eps), so the linear lanes stay finite. Seed
  // r ~ t^-1/3 from the float bit trick (3.9%), three division-free Newton
  // steps r += r (1 - t r^3) / 3 (error ~2e^2: 7e-10), y = t r^2, then one
  // Halley step y -= y (y^3 - t) / (2 y^3 + t), which lands within about
  // 1 ulp of the true cube root.
  const auto tc = B::max(t, eps);
  auto r = B::bits_affine_f32(tc, -1.0f / 3.0f, kRcbrtMagic);
  for (int step = 0; step < 3; ++step) {
    const auto residual = B::sub(one, B::mul(tc, B::mul(B::mul(r, r), r)));
    r = B::add(r, B::mul(B::mul(r, residual), third));
  }
  auto y = B::mul(tc, B::mul(r, r));
  const auto y3 = B::mul(B::mul(y, y), y);
  y = B::sub(y, B::div(B::mul(y, B::sub(y3, tc)), B::add(B::add(y3, y3), tc)));

  const auto linear = B::le(t, eps);
  if (!B::any(linear)) return y;
  // lab_f's linear segment, same operations: (kappa t + 16) / 116.
  const auto f_linear = B::div(
      B::add(B::mul(B::set1(kLabKappa), t), B::set1(16.0)), B::set1(116.0));
  return B::select(linear, f_linear, y);
}

/// Lane mask of the values within kRoundingGuard of a float rounding
/// boundary: (float)(v - guard) != (float)(v + guard).
template <typename B>
unsigned near_rounding_boundary(typename B::VD v) {
  const auto guard = B::set1(kRoundingGuard);
  return B::narrow_differs(B::sub(v, guard), B::add(v, guard));
}

template <typename B>
std::int64_t srgb_to_lab_row_impl(const Rgb8* src, std::int64_t count,
                                  float* L, float* a, float* b) {
  constexpr std::int64_t kL = B::kLanes;
  const double* const gamma = gamma_table().data();
  const auto m0 = B::set1(kSrgbToXyz[0]);
  const auto m1 = B::set1(kSrgbToXyz[1]);
  const auto m2 = B::set1(kSrgbToXyz[2]);
  const auto m3 = B::set1(kSrgbToXyz[3]);
  const auto m4 = B::set1(kSrgbToXyz[4]);
  const auto m5 = B::set1(kSrgbToXyz[5]);
  const auto m6 = B::set1(kSrgbToXyz[6]);
  const auto m7 = B::set1(kSrgbToXyz[7]);
  const auto m8 = B::set1(kSrgbToXyz[8]);
  const auto white_x = B::set1(kReferenceWhite[0]);
  const auto white_z = B::set1(kReferenceWhite[2]);
  // y / 1.0 == y exactly, so the reference's Y divide needs no instruction.
  static_assert(kReferenceWhite[1] == 1.0);
  const auto c116 = B::set1(116.0);
  const auto c16 = B::set1(16.0);
  const auto c500 = B::set1(500.0);
  const auto c200 = B::set1(200.0);

  std::int64_t fallbacks = 0;
  std::int64_t i = 0;
  // The gather reads one byte past each group, so a group runs only while
  // a pixel follows it: no byte past src[count - 1] is ever read, and the
  // last pixels take the reference below.
  for (; i + kL < count; i += kL) {
    const auto words = B::load_rgb(src + i);
    const auto r = B::gather(gamma, B::byte(words, 0));
    const auto g = B::gather(gamma, B::byte(words, 8));
    const auto bl = B::gather(gamma, B::byte(words, 16));

    // srgb_to_lab(Rgb8)'s XYZ, term for term.
    const auto x = B::add(B::add(B::mul(m0, r), B::mul(m1, g)), B::mul(m2, bl));
    const auto y = B::add(B::add(B::mul(m3, r), B::mul(m4, g)), B::mul(m5, bl));
    const auto z = B::add(B::add(B::mul(m6, r), B::mul(m7, g)), B::mul(m8, bl));

    const auto fx = lab_f_lanes<B>(B::div(x, white_x));
    const auto fy = lab_f_lanes<B>(y);
    const auto fz = lab_f_lanes<B>(B::div(z, white_z));

    const auto vl = B::sub(B::mul(c116, fy), c16);
    const auto va = B::mul(c500, B::sub(fx, fy));
    const auto vb = B::mul(c200, B::sub(fy, fz));
    B::store_f32(L + i, vl);
    B::store_f32(a + i, va);
    B::store_f32(b + i, vb);

    unsigned near = near_rounding_boundary<B>(vl) |
                    near_rounding_boundary<B>(va) |
                    near_rounding_boundary<B>(vb);
    for (; near != 0; near &= near - 1) {
      const std::int64_t j = i + std::countr_zero(near);
      const LabF px = srgb_to_lab(src[j]);
      L[j] = px.L;
      a[j] = px.a;
      b[j] = px.b;
      ++fallbacks;
    }
  }
  for (; i < count; ++i) {
    const LabF px = srgb_to_lab(src[i]);
    L[i] = px.L;
    a[i] = px.a;
    b[i] = px.b;
  }
  return fallbacks;
}

}  // namespace sslic::color_kernels
