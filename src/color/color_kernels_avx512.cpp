// AVX-512 conversion rows: 8 f64 lanes with opmask compares and blends,
// using the Skylake-SP subset (F+BW+DQ+VL) that common/simd.cpp requires
// before dispatch can select it. This TU is the only conversion code
// compiled with -mavx512*. -ffp-contract=off keeps the reference's
// multiplies and adds unfused.
#include <immintrin.h>

// GCC's maskless AVX-512 intrinsics expand to masked forms seeded with
// _mm512_undefined_*(), which trips -Wmaybe-uninitialized (GCC PR 105593).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include "color/color_kernels_impl.h"

namespace sslic::color_kernels {
namespace {

struct Avx512Backend {
  static constexpr int kLanes = 8;
  using VD = __m512d;
  using MD = __mmask8;
  using VI = __m256i;

  static VI load_rgb(const Rgb8* p) {
    return _mm256_i32gather_epi32(reinterpret_cast<const int*>(p),
                                  _mm256_setr_epi32(0, 3, 6, 9, 12, 15, 18, 21),
                                  1);
  }
  static VI byte(VI w, int shift) {
    return _mm256_and_si256(_mm256_srli_epi32(w, shift),
                            _mm256_set1_epi32(0xff));
  }
  static VD gather(const double* table, VI idx) {
    return _mm512_i32gather_pd(idx, table, 8);
  }
  static VD set1(double v) { return _mm512_set1_pd(v); }
  static VD add(VD a, VD b) { return _mm512_add_pd(a, b); }
  static VD sub(VD a, VD b) { return _mm512_sub_pd(a, b); }
  static VD mul(VD a, VD b) { return _mm512_mul_pd(a, b); }
  static VD div(VD a, VD b) { return _mm512_div_pd(a, b); }
  static VD max(VD a, VD b) { return _mm512_max_pd(a, b); }
  static MD le(VD a, VD b) { return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ); }
  static bool any(MD m) { return m != 0; }
  static VD select(MD m, VD a, VD b) { return _mm512_mask_blend_pd(m, b, a); }
  static VD bits_affine_f32(VD v, float scale, float offset) {
    const __m256 n =
        _mm256_cvtepi32_ps(_mm256_castps_si256(_mm512_cvtpd_ps(v)));
    const __m256 bits = _mm256_add_ps(_mm256_mul_ps(n, _mm256_set1_ps(scale)),
                                      _mm256_set1_ps(offset));
    return _mm512_cvtps_pd(_mm256_castsi256_ps(_mm256_cvtps_epi32(bits)));
  }
  static unsigned narrow_differs(VD a, VD b) {
    return _mm256_cmp_ps_mask(_mm512_cvtpd_ps(a), _mm512_cvtpd_ps(b),
                              _CMP_NEQ_OQ);
  }
  static void store_f32(float* p, VD v) {
    _mm256_storeu_ps(p, _mm512_cvtpd_ps(v));
  }
};

}  // namespace

std::int64_t srgb_to_lab_row_avx512(const Rgb8* src, std::int64_t count,
                                    float* L, float* a, float* b) {
  return srgb_to_lab_row_impl<Avx512Backend>(src, count, L, a, b);
}

}  // namespace sslic::color_kernels
