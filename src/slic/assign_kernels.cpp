#include "slic/assign_kernels.h"

namespace sslic::kernels {

const KernelTable& table_for(simd::Isa isa) {
  switch (isa) {
    case simd::Isa::kScalar:
      break;
    case simd::Isa::kSse2:
#if defined(SSLIC_KERNELS_SSE2)
      return sse2_table();
#else
      break;
#endif
    case simd::Isa::kAvx2:
#if defined(SSLIC_KERNELS_AVX2)
      return avx2_table();
#else
      break;
#endif
    case simd::Isa::kNeon:
#if defined(SSLIC_KERNELS_NEON)
      return neon_table();
#else
      break;
#endif
    case simd::Isa::kAvx512:
#if defined(SSLIC_KERNELS_AVX512)
      return avx512_table();
#else
      break;
#endif
  }
  return scalar_table();
}

const KernelTable& active() { return table_for(active_isa()); }

}  // namespace sslic::kernels
