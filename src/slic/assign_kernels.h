// Vectorized distance/assignment kernels with runtime ISA dispatch.
//
// These row kernels are the software hot path of every segmenter in
// the family — the per-pixel 5-D distance + argmin that the accelerator
// implements as parallel distance calculators feeding a minimum tree:
//
//   * assign_center_row       CPA/SLIC: one center's running-min update
//                             over a row segment of its 2Sx2S window.
//   * assign_candidates_row   PPA: best-of-9-candidates per pixel over a
//                             tile row, with the round-robin subset mask.
//   * assign_candidates_row_u8  The 8-bit integer datapath variant of the
//                             same (HwSlic golden model).
//   * accumulate_row          Center-update sigma accumulation: scatters
//                             one row's Lab/x/y contributions into the
//                             per-label sigma registers (the software
//                             analogue of the accelerator's tile-resident
//                             cluster update unit).
//
// Bit-identical contract (carried over from the threading layer, DESIGN.md
// "Parallel execution"): every pixel's arithmetic is lane-independent and
// performs the *same operation sequence* as the scalar reference — plain
// IEEE multiplies and adds in the association order of
// DistanceCalculator::squared / HwSlic::integer_distance, no FMA
// contraction (kernel TUs build with -ffp-contract=off), strict `<`
// comparisons so distance ties keep the lowest center index in every lane.
// Labels, min-distances, and therefore centers are byte-identical across
// scalar/SSE2/AVX2/AVX-512/NEON backends, tail lengths, and thread counts;
// tests/test_simd.cpp asserts this exhaustively.
//
// Each backend lives in its own translation unit compiled with the
// matching architecture flags (assign_kernels_{scalar,sse2,avx2,neon}.cpp)
// and instantiates one shared template algorithm
// (assign_kernels_impl.h), so the operation sequence cannot drift between
// backends. Dispatch is a function-pointer table selected from
// simd::preferred_isa() clamped to the backends compiled into the binary.
#pragma once

#include <cstdint>

#include "common/simd.h"
#include "slic/center_update.h"

namespace sslic::kernels {

/// One 5-D cluster center plus its index, in the double-precision form the
/// floating-point kernels consume.
struct CenterOperand {
  double L = 0.0;
  double a = 0.0;
  double b = 0.0;
  double x = 0.0;
  double y = 0.0;
  std::int32_t index = 0;
};

/// Integer center operand of the 8-bit datapath kernel (Lab8-encoded color
/// plus pixel coordinates, as the hardware center registers hold them).
struct HwCenterOperand {
  std::int32_t L = 0;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t x = 0;
  std::int32_t y = 0;
  std::int32_t index = 0;
};

/// Function-pointer table of one backend's kernels. All row pointers are
/// pre-offset to the segment start (pixel x0 of row y); `count` is the
/// segment length in pixels. None of the kernels require alignment.
struct KernelTable {
  /// CPA running-min update: for i in [0, count), computes the squared
  /// Eq.-5 distance of pixel (x0+i, y) to `center` and, where it is
  /// strictly below min_dist[i], stores it and center.index.
  void (*assign_center_row)(const float* L, const float* a, const float* b,
                            std::int32_t x0, std::int32_t count, double y,
                            const CenterOperand& center, double spatial_weight,
                            double* min_dist, std::int32_t* labels);

  /// PPA best-of-candidates: for i in [0, count) with active[i] != 0 (a
  /// null `active` means every pixel), finds the candidate with the
  /// minimum distance (ties keep the earliest list slot) and stores the
  /// candidate index into labels[i]. Each pixel takes a fresh best of the
  /// list, so no running minimum is read or kept. Inactive pixels are left
  /// untouched. `ncand` must be >= 1.
  void (*assign_candidates_row)(const float* L, const float* a, const float* b,
                                std::int32_t x0, std::int32_t count, double y,
                                const CenterOperand* cands, std::int32_t ncand,
                                double spatial_weight,
                                const std::uint8_t* active,
                                std::int32_t* labels);

  /// 8-bit integer datapath best-of-candidates (HwSlic::integer_distance
  /// followed by HwSlic::quantize_distance when dist_bits != 0); stores
  /// the winning candidate index into labels[i] for active pixels.
  void (*assign_candidates_row_u8)(const std::uint8_t* L,
                                   const std::uint8_t* a,
                                   const std::uint8_t* b, std::int32_t x0,
                                   std::int32_t count, std::int32_t y,
                                   const HwCenterOperand* cands,
                                   std::int32_t ncand, std::int32_t weight_q8,
                                   std::int32_t dist_bits,
                                   std::int32_t dist_shift,
                                   const std::uint8_t* active,
                                   std::int32_t* labels);

  /// Center-update sigma scatter: for i in [0, count), adds pixel
  /// (x0+i, y)'s Lab color and coordinates into sigmas[labels[i]] in the
  /// exact field order of Sigma::add (L, a, b, x, y, count). Vector
  /// backends widen `kLanesF64` floats at a time but always scatter in
  /// ascending lane order — the f32->f64 widening is exact and the
  /// accumulation order matches the scalar loop, so sigma sums are
  /// bit-equal to the scalar reference on every backend.
  void (*accumulate_row)(const float* L, const float* a, const float* b,
                         std::int32_t x0, std::int32_t count, std::int32_t y,
                         const std::int32_t* labels, Sigma* sigmas);
};

/// True when the backend for `isa` was compiled into this binary (the
/// scalar backend always is; vector backends depend on the target
/// architecture and the SSLIC_SIMD build option).
bool backend_compiled(simd::Isa isa);

/// The kernel table of `isa`; falls back to the scalar table when that
/// backend is not compiled in. Calling a vector table on a CPU that lacks
/// the instruction set is undefined — resolve through `active_isa()`
/// unless the caller has checked `simd::cpu_supports` itself.
const KernelTable& table_for(simd::Isa isa);

/// The ISA actually used: simd::preferred_isa() (env/flag override, CPU
/// clamped) further clamped to the compiled backends, degrading
/// avx512 -> avx2 -> sse2 -> scalar and neon -> scalar. Publishes the
/// resolved value as the telemetry gauge `sslic.simd.active_isa` (the
/// numeric Isa enum value) so runs can report which backend executed.
simd::Isa active_isa();

/// Kernel table of `active_isa()` — what the segmenters call. Resolve once
/// per run, outside the pixel loops.
const KernelTable& active();

// Per-backend tables, defined in assign_kernels_<isa>.cpp. Internal —
// callers use table_for()/active().
const KernelTable& scalar_table();
#if defined(SSLIC_KERNELS_SSE2)
const KernelTable& sse2_table();
#endif
#if defined(SSLIC_KERNELS_AVX2)
const KernelTable& avx2_table();
#endif
#if defined(SSLIC_KERNELS_NEON)
const KernelTable& neon_table();
#endif
#if defined(SSLIC_KERNELS_AVX512)
const KernelTable& avx512_table();
#endif

}  // namespace sslic::kernels
