// Reference (double-precision) sRGB -> CIELAB conversion, paper Eqs. 1-4,
// and the image-level conversion that runs it — per pixel, or through the
// AVX2/AVX-512 row kernels that write the same floats (color_kernels.h).
//
// Two transcription notes versus the paper text, both obvious typos against
// the standard sRGB/CIELAB definitions the paper cites:
//   * Eq. 1 prints (x+0.05)/1.055; the sRGB standard (and every SLIC
//     implementation) uses (x+0.055)/1.055. We implement the standard form.
//   * Eq. 3 prints b = 200*(fY - fX); the CIELAB definition is
//     b = 200*(fY - fZ). We implement the standard form.
#pragma once

#include <array>
#include <cstdint>

#include "common/simd.h"
#include "image/image.h"

namespace sslic {

/// Row-major 3x3 sRGB(D65) -> XYZ matrix, the paper's M (Eq. 2).
inline constexpr std::array<double, 9> kSrgbToXyz = {
    0.4124564, 0.3575761, 0.1804375,  //
    0.2126729, 0.7151522, 0.0721750,  //
    0.0193339, 0.1191920, 0.9503041,
};

/// D65 reference white [Xr, Yr, Zr] (Eq. 4's normalizer).
inline constexpr std::array<double, 3> kReferenceWhite = {0.950456, 1.0,
                                                          1.088754};

/// CIELAB linearization threshold (Eq. 4): (6/29)^3.
inline constexpr double kLabEpsilon = 0.008856;
/// CIELAB linear-segment slope (Eq. 4): 903.3 = (29/3)^3.
inline constexpr double kLabKappa = 903.3;

/// Inverse sRGB gamma (Eq. 1): maps an encoded channel in [0,1] to linear.
double srgb_inverse_gamma(double encoded);

/// CIELAB f(t) (Eq. 4) applied to an XYZ component already divided by the
/// reference white.
double lab_f(double t);

/// Converts one 8-bit sRGB pixel to CIELAB (L in [0,100], a/b roughly
/// [-110,110]).
LabF srgb_to_lab(Rgb8 rgb);

/// Converts a full image (the path the software SLIC implementations use
/// and the golden model of the LUT unit's tests). Every float equals
/// srgb_to_lab(Rgb8) of its pixel, whichever row kernel ran.
LabImage srgb_to_lab(const RgbImage& image);

/// In-place variant: converts into `lab`'s three planes, resizing only when
/// the dimensions change. Allocation-free at steady state (the video loop
/// reuses one Lab frame across the stream). The conversion is one stage
/// clock: it records the `color.srgb_to_lab` span and returns the same
/// measurement in milliseconds, for the caller's
/// `Instrumentation::convert_ms`. Runs srgb_to_lab_row(srgb_to_lab_isa())
/// inside its parallel_for chunks, resolved once per call.
double srgb_to_lab(const RgbImage& image, LabImage& lab);

/// A conversion row: converts `count` pixels of `src` into the three
/// planes. Every float it writes equals srgb_to_lab(Rgb8) of that pixel,
/// byte for byte (color/color_kernels.h has the contract). Returns how many
/// pixels a vector kernel's rounding guard handed to srgb_to_lab(Rgb8) (0
/// for the reference row). Reads exactly 3 * count bytes of `src`.
using LabRowKernel = std::int64_t (*)(const Rgb8* src, std::int64_t count,
                                      float* L, float* a, float* b);

/// The row kernel of `isa`: vector kernels for AVX2 and AVX-512 when this
/// binary compiled them, the per-pixel reference loop otherwise (scalar,
/// SSE2, NEON, and every ISA of a -DSSLIC_SIMD=OFF build). Calling a vector
/// kernel on a CPU that lacks the ISA is undefined — resolve through
/// srgb_to_lab_isa() unless the caller has checked simd::cpu_supports.
LabRowKernel srgb_to_lab_row(simd::Isa isa);

/// The ISA the image-level conversion resolves to: simd::active_isa(), the
/// ladder the assignment kernels use too, so one `isa` names both.
simd::Isa srgb_to_lab_isa();

/// Inverse conversion (CIELAB -> 8-bit sRGB, channels clamped), used by the
/// dataset generator to synthesize images with prescribed Lab statistics.
Rgb8 lab_to_srgb(const LabF& lab);

}  // namespace sslic
