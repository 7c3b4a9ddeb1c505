// Reference (double-precision) sRGB -> CIELAB conversion, paper Eqs. 1-4.
//
// Two transcription notes versus the paper text, both obvious typos against
// the standard sRGB/CIELAB definitions the paper cites:
//   * Eq. 1 prints (x+0.05)/1.055; the sRGB standard (and every SLIC
//     implementation) uses (x+0.055)/1.055. We implement the standard form.
//   * Eq. 3 prints b = 200*(fY - fX); the CIELAB definition is
//     b = 200*(fY - fZ). We implement the standard form.
#pragma once

#include <array>

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

/// Converts a full image (reference path used by the software SLIC
/// implementations and as the golden model for the LUT unit's tests).
LabImage srgb_to_lab(const RgbImage& image);

/// In-place variant: converts into `lab`'s three planes, resizing only when
/// the dimensions change. Allocation-free at steady state (the video loop
/// reuses one Lab frame across the stream). The conversion is one stage
/// clock: it records the `color.srgb_to_lab` span and returns the same
/// measurement in milliseconds, for the caller's
/// `Instrumentation::convert_ms`.
double srgb_to_lab(const RgbImage& image, LabImage& lab);

/// Inverse conversion (CIELAB -> 8-bit sRGB, channels clamped), used by the
/// dataset generator to synthesize images with prescribed Lab statistics.
Rgb8 lab_to_srgb(const LabF& lab);

}  // namespace sslic
