// Shared template implementation of the assignment kernels, instantiated
// once per ISA backend (assign_kernels_{scalar,sse2,avx2,neon}.cpp). One
// algorithm definition for every backend guarantees the operation sequence
// — and therefore the bit pattern of every result — cannot drift between
// the scalar reference and the vector paths.
//
// A backend `B` provides:
//   kLanesF64 / kLanesI32   lane counts of the f64 / i32 paths
//   VD / VL / MD            f64 vector, label (i32) vector with kLanesF64
//                           lanes, f64 comparison mask
//   VI / MI                 i32 vector with kLanesI32 lanes and its mask
//   f64 path: load_f32 (widen kLanesF64 floats to doubles), loadu_f64,
//     storeu_f64, set1_f64, iota_f64(base) = {base, base+1, ...},
//     add/sub/mul, cmplt_f64 (strict a < b), select_f64(m, a, b) = m?a:b,
//     loadu_lab/storeu_lab/set1_lab/select_lab on VL,
//     mask_f64_from_bytes (byte != 0 -> lane all-ones)
//   i32 path: load_u8_i32 (widen kLanesI32 bytes), loadu_i32, storeu_i32,
//     set1_i32, iota_i32, add_i32/sub_i32/mul_i32, mulw_shr8 (exact
//     (int64)weight * v >> 8 per lane, low 32 bits kept), sra_i32
//     (arithmetic shift by a uniform runtime count), min_i32, cmplt_i32,
//     select_i32, mask_i32_from_bytes, all_eq_i32 (every lane of a equals
//     the corresponding lane of b).
//
// The distance arithmetic mirrors DistanceCalculator::squared and
// HwSlic::integer_distance term for term:
//   dc2 = ((dl*dl) + (da*da)) + (db*db)
//   ds2 = (dx*dx) + (dy*dy)
//   d   = dc2 + w * ds2              (f64)   /   dc2 + ((w * ds2) >> 8) (i32)
// Plain mul/add only — the per-ISA TUs compile with -ffp-contract=off so
// neither the scalar instantiation nor any fallback code path is fused.
// Vector-width blocks process kLanes pixels; the remainder re-enters the
// same template with the scalar backend, so tails of every length produce
// the same bytes as a full-width lane would.
#pragma once

#include <cstdint>
#include <limits>

#include "slic/assign_kernels.h"

namespace sslic::kernels {

/// The scalar backend: one lane, plain C++ arithmetic. Also the tail
/// handler of every vector backend.
struct ScalarBackend {
  static constexpr int kLanesF64 = 1;
  static constexpr int kLanesI32 = 1;
  using VD = double;
  using VL = std::int32_t;
  using MD = bool;
  using VI = std::int32_t;
  using MI = bool;

  static VD load_f32(const float* p) { return static_cast<double>(*p); }
  static VD loadu_f64(const double* p) { return *p; }
  static void storeu_f64(double* p, VD v) { *p = v; }
  static VD set1_f64(double v) { return v; }
  static VD iota_f64(double base) { return base; }
  static VD add(VD a, VD b) { return a + b; }
  static VD sub(VD a, VD b) { return a - b; }
  static VD mul(VD a, VD b) { return a * b; }
  static MD cmplt_f64(VD a, VD b) { return a < b; }
  static VD select_f64(MD m, VD a, VD b) { return m ? a : b; }
  static VL loadu_lab(const std::int32_t* p) { return *p; }
  static void storeu_lab(std::int32_t* p, VL v) { *p = v; }
  static VL set1_lab(std::int32_t v) { return v; }
  static VL select_lab(MD m, VL a, VL b) { return m ? a : b; }
  static MD mask_f64_from_bytes(const std::uint8_t* p) { return *p != 0; }

  static VI load_u8_i32(const std::uint8_t* p) {
    return static_cast<std::int32_t>(*p);
  }
  static VI loadu_i32(const std::int32_t* p) { return *p; }
  static void storeu_i32(std::int32_t* p, VI v) { *p = v; }
  static VI set1_i32(std::int32_t v) { return v; }
  static VI iota_i32(std::int32_t base) { return base; }
  static VI add_i32(VI a, VI b) { return a + b; }
  static VI sub_i32(VI a, VI b) { return a - b; }
  static VI mul_i32(VI a, VI b) { return a * b; }
  static VI mulw_shr8(VI v, std::int32_t weight) {
    return static_cast<std::int32_t>(
        (static_cast<std::int64_t>(weight) * v) >> 8);
  }
  static VI sra_i32(VI v, int count) { return v >> count; }
  static VI min_i32(VI a, VI b) { return a < b ? a : b; }
  static MI cmplt_i32(VI a, VI b) { return a < b; }
  static VI select_i32(MI m, VI a, VI b) { return m ? a : b; }
  static MI mask_i32_from_bytes(const std::uint8_t* p) { return *p != 0; }
  static bool all_eq_i32(VI a, VI b) { return a == b; }
};

template <typename B>
void assign_center_row_impl(const float* L, const float* a, const float* b,
                            std::int32_t x0, std::int32_t count, double y,
                            const CenterOperand& center, double spatial_weight,
                            double* min_dist, std::int32_t* labels) {
  constexpr std::int32_t kL = B::kLanesF64;
  const auto cl = B::set1_f64(center.L);
  const auto ca = B::set1_f64(center.a);
  const auto cb = B::set1_f64(center.b);
  const auto cx = B::set1_f64(center.x);
  const auto w = B::set1_f64(spatial_weight);
  const auto idx = B::set1_lab(center.index);
  // dy is the same for the whole row; computing it once per row is the
  // identical IEEE operation the scalar code performs per pixel.
  const auto dy = B::sub(B::set1_f64(y), B::set1_f64(center.y));
  const auto dy2 = B::mul(dy, dy);

  std::int32_t i = 0;
  for (; i + kL <= count; i += kL) {
    const auto dl = B::sub(B::load_f32(L + i), cl);
    const auto da = B::sub(B::load_f32(a + i), ca);
    const auto db = B::sub(B::load_f32(b + i), cb);
    const auto dx = B::sub(B::iota_f64(static_cast<double>(x0 + i)), cx);
    const auto dc2 =
        B::add(B::add(B::mul(dl, dl), B::mul(da, da)), B::mul(db, db));
    const auto ds2 = B::add(B::mul(dx, dx), dy2);
    const auto d = B::add(dc2, B::mul(w, ds2));
    const auto cur = B::loadu_f64(min_dist + i);
    const auto m = B::cmplt_f64(d, cur);
    B::storeu_f64(min_dist + i, B::select_f64(m, d, cur));
    const auto lab = B::loadu_lab(labels + i);
    B::storeu_lab(labels + i, B::select_lab(m, idx, lab));
  }
  if constexpr (kL > 1) {
    if (i < count) {
      assign_center_row_impl<ScalarBackend>(L + i, a + i, b + i, x0 + i,
                                            count - i, y, center,
                                            spatial_weight, min_dist + i,
                                            labels + i);
    }
  }
}

template <typename B>
void assign_candidates_row_impl(const float* L, const float* a, const float* b,
                                std::int32_t x0, std::int32_t count, double y,
                                const CenterOperand* cands, std::int32_t ncand,
                                double spatial_weight,
                                const std::uint8_t* active,
                                std::int32_t* labels) {
  constexpr std::int32_t kL = B::kLanesF64;
  const auto w = B::set1_f64(spatial_weight);
  const auto yv = B::set1_f64(y);
  const auto inf = B::set1_f64(std::numeric_limits<double>::infinity());

  std::int32_t i = 0;
  for (; i + kL <= count; i += kL) {
    const auto pl = B::load_f32(L + i);
    const auto pa = B::load_f32(a + i);
    const auto pb = B::load_f32(b + i);
    const auto xv = B::iota_f64(static_cast<double>(x0 + i));
    auto best = inf;
    auto best_idx = B::set1_lab(cands[0].index);
    for (std::int32_t k = 0; k < ncand; ++k) {
      const CenterOperand& c = cands[k];
      const auto dl = B::sub(pl, B::set1_f64(c.L));
      const auto da = B::sub(pa, B::set1_f64(c.a));
      const auto db = B::sub(pb, B::set1_f64(c.b));
      const auto dx = B::sub(xv, B::set1_f64(c.x));
      const auto dy = B::sub(yv, B::set1_f64(c.y));
      const auto dc2 =
          B::add(B::add(B::mul(dl, dl), B::mul(da, da)), B::mul(db, db));
      const auto ds2 = B::add(B::mul(dx, dx), B::mul(dy, dy));
      const auto d = B::add(dc2, B::mul(w, ds2));
      const auto m = B::cmplt_f64(d, best);
      best = B::select_f64(m, d, best);
      best_idx = B::select_lab(m, B::set1_lab(c.index), best_idx);
    }
    if (active == nullptr) {
      B::storeu_lab(labels + i, best_idx);
    } else {
      const auto am = B::mask_f64_from_bytes(active + i);
      B::storeu_lab(labels + i,
                    B::select_lab(am, best_idx, B::loadu_lab(labels + i)));
    }
  }
  if constexpr (kL > 1) {
    if (i < count) {
      assign_candidates_row_impl<ScalarBackend>(
          L + i, a + i, b + i, x0 + i, count - i, y, cands, ncand,
          spatial_weight, active == nullptr ? nullptr : active + i,
          labels + i);
    }
  }
}

template <typename B>
void assign_candidates_row_u8_impl(
    const std::uint8_t* L, const std::uint8_t* a, const std::uint8_t* b,
    std::int32_t x0, std::int32_t count, std::int32_t y,
    const HwCenterOperand* cands, std::int32_t ncand, std::int32_t weight_q8,
    std::int32_t dist_bits, std::int32_t dist_shift,
    const std::uint8_t* active, std::int32_t* labels) {
  constexpr std::int32_t kL = B::kLanesI32;
  const auto max_quant =
      B::set1_i32(dist_bits != 0 ? (std::int32_t{1} << dist_bits) - 1 : 0);

  std::int32_t i = 0;
  for (; i + kL <= count; i += kL) {
    const auto pl = B::load_u8_i32(L + i);
    const auto pa = B::load_u8_i32(a + i);
    const auto pb = B::load_u8_i32(b + i);
    const auto xv = B::iota_i32(x0 + i);
    auto best = B::set1_i32(std::numeric_limits<std::int32_t>::max());
    auto best_idx = B::set1_i32(cands[0].index);
    for (std::int32_t k = 0; k < ncand; ++k) {
      const HwCenterOperand& c = cands[k];
      const auto dl = B::sub_i32(pl, B::set1_i32(c.L));
      const auto da = B::sub_i32(pa, B::set1_i32(c.a));
      const auto db = B::sub_i32(pb, B::set1_i32(c.b));
      const auto dx = B::sub_i32(xv, B::set1_i32(c.x));
      const std::int32_t dy = y - c.y;
      const auto dc2 = B::add_i32(
          B::add_i32(B::mul_i32(dl, dl), B::mul_i32(da, da)),
          B::mul_i32(db, db));
      const auto ds2 =
          B::add_i32(B::mul_i32(dx, dx), B::set1_i32(dy * dy));
      auto d = B::add_i32(dc2, B::mulw_shr8(ds2, weight_q8));
      if (dist_bits != 0) {
        d = B::min_i32(B::sra_i32(d, dist_shift), max_quant);
      }
      const auto m = B::cmplt_i32(d, best);
      best = B::select_i32(m, d, best);
      best_idx = B::select_i32(m, B::set1_i32(c.index), best_idx);
    }
    if (active == nullptr) {
      B::storeu_i32(labels + i, best_idx);
    } else {
      const auto am = B::mask_i32_from_bytes(active + i);
      B::storeu_i32(labels + i,
                    B::select_i32(am, best_idx, B::loadu_i32(labels + i)));
    }
  }
  if constexpr (kL > 1) {
    if (i < count) {
      assign_candidates_row_u8_impl<ScalarBackend>(
          L + i, a + i, b + i, x0 + i, count - i, y, cands, ncand, weight_q8,
          dist_bits, dist_shift, active == nullptr ? nullptr : active + i,
          labels + i);
    }
  }
}

// Fused-iteration sigma accumulation, bit-equal to the reference per-pixel
// loop (for each pixel, in ascending order: s.L += L; s.a += a; s.b += b;
// s.x += x; s.y += y; s.count += 1). Two reorderings make it fast, neither
// of which can change a single bit:
//
//  1. Run batching. A row is a sequence of label runs (a superpixel is ~S
//     pixels wide), so the row is processed run by run with the sigma's
//     L/a/b fields held in registers for the whole run. The per-FIELD add
//     sequence — the only thing IEEE rounding depends on — is untouched:
//     field chains are independent, so interleaving across fields is free,
//     and `reg = s.L; reg += l_i...; s.L = reg` is the same chain as
//     `s.L += l_i` repeated. (f32 -> f64 widening is exact.)
//  2. Closed forms for the integer fields. x, y and count only ever hold
//     integers (well under 2^53), so every partial sum in the reference
//     loop is exact — the arithmetic-series total for x, y*len, and
//     count+len are the same doubles the per-pixel adds produce.
//
// The summation itself — three dependent double-add chains per run — is
// latency-bound, not throughput-bound, so SIMD widening doesn't pay there.
// What the vector backends do accelerate is finding the run END: the label
// scan compares kLanesI32 labels per step (all_eq_i32 against the splat)
// instead of one, which removes the ~1 cycle/pixel scalar scan from the
// critical path. The scan only locates boundaries — the pixels summed and
// their order are unchanged, so the output stays bit-identical.
template <typename B>
void accumulate_row_impl(const float* L, const float* a, const float* b,
                         std::int32_t x0, std::int32_t count, std::int32_t y,
                         const std::int32_t* labels, Sigma* sigmas) {
  constexpr std::int32_t kL = B::kLanesI32;
  const double yd = static_cast<double>(y);
  std::int32_t i = 0;
  while (i < count) {
    const std::int32_t label = labels[i];
    std::int32_t j = i + 1;
    if constexpr (kL > 1) {
      const auto lv = B::set1_i32(label);
      while (j + kL <= count && B::all_eq_i32(B::loadu_i32(labels + j), lv))
        j += kL;
    }
    while (j < count && labels[j] == label) ++j;
    Sigma& s = sigmas[static_cast<std::size_t>(label)];
    double sl = s.L;
    double sa = s.a;
    double sb = s.b;
    for (std::int32_t k = i; k < j; ++k) {
      sl += static_cast<double>(L[k]);
      sa += static_cast<double>(a[k]);
      sb += static_cast<double>(b[k]);
    }
    s.L = sl;
    s.a = sa;
    s.b = sb;
    const std::int64_t len = j - i;
    const std::int64_t first = x0 + i;
    const std::int64_t last = x0 + j - 1;
    s.x += static_cast<double>((first + last) * len / 2);
    s.y += yd * static_cast<double>(len);
    s.count += static_cast<std::uint64_t>(len);
    i = j;
  }
}

/// Builds one backend's dispatch table from the template instantiations.
template <typename B>
KernelTable make_table() {
  return KernelTable{&assign_center_row_impl<B>, &assign_candidates_row_impl<B>,
                     &assign_candidates_row_u8_impl<B>, &accumulate_row_impl<B>};
}

}  // namespace sslic::kernels
