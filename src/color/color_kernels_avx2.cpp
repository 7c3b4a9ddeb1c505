// AVX2 conversion rows: 4 f64 lanes. This TU is the only conversion code
// compiled with -mavx2; dispatch never selects it unless the CPU reports
// AVX2 at runtime (common/simd.cpp). -ffp-contract=off keeps the
// reference's multiplies and adds unfused.
#include <immintrin.h>

// GCC's maskless gathers seed their result with _mm256_undefined_pd(),
// which trips -Wmaybe-uninitialized (GCC PR 105593).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include "color/color_kernels_impl.h"

namespace sslic::color_kernels {
namespace {

struct Avx2Backend {
  static constexpr int kLanes = 4;
  using VD = __m256d;
  using MD = __m256d;
  using VI = __m128i;

  static VI load_rgb(const Rgb8* p) {
    return _mm_i32gather_epi32(reinterpret_cast<const int*>(p),
                               _mm_setr_epi32(0, 3, 6, 9), 1);
  }
  static VI byte(VI w, int shift) {
    return _mm_and_si128(_mm_srli_epi32(w, shift), _mm_set1_epi32(0xff));
  }
  static VD gather(const double* table, VI idx) {
    return _mm256_i32gather_pd(table, idx, 8);
  }
  static VD set1(double v) { return _mm256_set1_pd(v); }
  static VD add(VD a, VD b) { return _mm256_add_pd(a, b); }
  static VD sub(VD a, VD b) { return _mm256_sub_pd(a, b); }
  static VD mul(VD a, VD b) { return _mm256_mul_pd(a, b); }
  static VD div(VD a, VD b) { return _mm256_div_pd(a, b); }
  static VD max(VD a, VD b) { return _mm256_max_pd(a, b); }
  static MD le(VD a, VD b) { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
  static bool any(MD m) { return _mm256_movemask_pd(m) != 0; }
  static VD select(MD m, VD a, VD b) { return _mm256_blendv_pd(b, a, m); }
  static VD bits_affine_f32(VD v, float scale, float offset) {
    const __m128 n = _mm_cvtepi32_ps(_mm_castps_si128(_mm256_cvtpd_ps(v)));
    const __m128 bits =
        _mm_add_ps(_mm_mul_ps(n, _mm_set1_ps(scale)), _mm_set1_ps(offset));
    return _mm256_cvtps_pd(_mm_castsi128_ps(_mm_cvtps_epi32(bits)));
  }
  static unsigned narrow_differs(VD a, VD b) {
    return static_cast<unsigned>(_mm_movemask_ps(
        _mm_cmp_ps(_mm256_cvtpd_ps(a), _mm256_cvtpd_ps(b), _CMP_NEQ_OQ)));
  }
  static void store_f32(float* p, VD v) { _mm_storeu_ps(p, _mm256_cvtpd_ps(v)); }
};

}  // namespace

std::int64_t srgb_to_lab_row_avx2(const Rgb8* src, std::int64_t count,
                                  float* L, float* a, float* b) {
  return srgb_to_lab_row_impl<Avx2Backend>(src, count, L, a, b);
}

}  // namespace sslic::color_kernels
