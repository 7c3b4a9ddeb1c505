// Tests for src/color: the double-precision reference conversion (Eqs. 1-4)
// and the accelerator's LUT color-conversion unit (Fig. 4, Section 6.1).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "color/color_convert.h"
#include "color/lab8.h"
#include "color/lut_color_unit.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace sslic {
namespace {

// ------------------------------------------------------ reference (Eq. 1-4)

TEST(ColorReference, InverseGammaEndpoints) {
  EXPECT_DOUBLE_EQ(srgb_inverse_gamma(0.0), 0.0);
  EXPECT_NEAR(srgb_inverse_gamma(1.0), 1.0, 1e-12);
}

TEST(ColorReference, InverseGammaContinuousAtKnee) {
  const double below = srgb_inverse_gamma(0.04045 - 1e-9);
  const double above = srgb_inverse_gamma(0.04045 + 1e-9);
  EXPECT_NEAR(below, above, 1e-5);
}

TEST(ColorReference, LabFContinuousAtEpsilon) {
  const double below = lab_f(kLabEpsilon - 1e-9);
  const double above = lab_f(kLabEpsilon + 1e-9);
  EXPECT_NEAR(below, above, 1e-5);
}

TEST(ColorReference, WhiteIsL100) {
  const LabF white = srgb_to_lab({255, 255, 255});
  EXPECT_NEAR(white.L, 100.0, 0.01);
  EXPECT_NEAR(white.a, 0.0, 0.05);
  EXPECT_NEAR(white.b, 0.0, 0.05);
}

TEST(ColorReference, BlackIsL0) {
  const LabF black = srgb_to_lab({0, 0, 0});
  EXPECT_NEAR(black.L, 0.0, 1e-6);
  EXPECT_NEAR(black.a, 0.0, 1e-6);
  EXPECT_NEAR(black.b, 0.0, 1e-6);
}

TEST(ColorReference, GreysAreNeutral) {
  for (int v = 10; v <= 250; v += 40) {
    const auto g = static_cast<std::uint8_t>(v);
    const LabF lab = srgb_to_lab({g, g, g});
    EXPECT_NEAR(lab.a, 0.0, 0.05) << "v=" << v;
    EXPECT_NEAR(lab.b, 0.0, 0.05) << "v=" << v;
  }
}

TEST(ColorReference, PrimariesMatchKnownValues) {
  // Standard sRGB(D65) CIELAB coordinates of the primaries.
  const LabF red = srgb_to_lab({255, 0, 0});
  EXPECT_NEAR(red.L, 53.24, 0.1);
  EXPECT_NEAR(red.a, 80.09, 0.2);
  EXPECT_NEAR(red.b, 67.20, 0.2);

  const LabF green = srgb_to_lab({0, 255, 0});
  EXPECT_NEAR(green.L, 87.74, 0.1);
  EXPECT_NEAR(green.a, -86.18, 0.2);
  EXPECT_NEAR(green.b, 83.18, 0.2);

  const LabF blue = srgb_to_lab({0, 0, 255});
  EXPECT_NEAR(blue.L, 32.30, 0.1);
  EXPECT_NEAR(blue.a, 79.19, 0.2);
  EXPECT_NEAR(blue.b, -107.86, 0.2);
}

TEST(ColorReference, LightnessMonotoneInGrey) {
  float prev = -1.0f;
  for (int v = 0; v <= 255; ++v) {
    const auto g = static_cast<std::uint8_t>(v);
    const float L = srgb_to_lab({g, g, g}).L;
    EXPECT_GT(L, prev);
    prev = L;
  }
}

TEST(ColorReference, InverseRoundTrips) {
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const Rgb8 rgb{static_cast<std::uint8_t>(rng.next_int(0, 255)),
                   static_cast<std::uint8_t>(rng.next_int(0, 255)),
                   static_cast<std::uint8_t>(rng.next_int(0, 255))};
    const Rgb8 back = lab_to_srgb(srgb_to_lab(rgb));
    EXPECT_NEAR(back.r, rgb.r, 1) << i;
    EXPECT_NEAR(back.g, rgb.g, 1) << i;
    EXPECT_NEAR(back.b, rgb.b, 1) << i;
  }
}

TEST(ColorReference, FullImageConversionMatchesPerPixel) {
  // Every pixel of every plane, byte for byte, at pool widths that split
  // the plane writes differently (257x131 divides evenly by none of them).
  RgbImage img(257, 131);
  Rng rng(97);
  for (auto& px : img.pixels())
    px = {static_cast<std::uint8_t>(rng.next_int(0, 255)),
          static_cast<std::uint8_t>(rng.next_int(0, 255)),
          static_cast<std::uint8_t>(rng.next_int(0, 255))};
  struct GlobalThreadsGuard {
    ~GlobalThreadsGuard() { ThreadPool::set_global_threads(0); }
  } threads_guard;
  for (const int threads : {1, 3, 8}) {
    SCOPED_TRACE(threads);
    ThreadPool::set_global_threads(threads);
    const LabImage lab = srgb_to_lab(img);
    ASSERT_EQ(lab.width(), img.width());
    ASSERT_EQ(lab.height(), img.height());
    int mismatches = 0;
    for (int y = 0; y < img.height(); ++y) {
      for (int x = 0; x < img.width(); ++x) {
        const LabF want = srgb_to_lab(img(x, y));
        mismatches += std::memcmp(&lab.L(x, y), &want.L, sizeof(float)) != 0;
        mismatches += std::memcmp(&lab.a(x, y), &want.a, sizeof(float)) != 0;
        mismatches += std::memcmp(&lab.b(x, y), &want.b, sizeof(float)) != 0;
      }
    }
    EXPECT_EQ(mismatches, 0);
  }
}

// ------------------------------------------------------------------- Lab8

TEST(Lab8, EncodeDecodeEndpoints) {
  EXPECT_EQ(encode_lab8({0.0f, 0.0f, 0.0f}).L, 0);
  EXPECT_EQ(encode_lab8({100.0f, 0.0f, 0.0f}).L, 255);
  EXPECT_EQ(encode_lab8({0.0f, -128.0f, 127.0f}).a, 0);
  EXPECT_EQ(encode_lab8({0.0f, -128.0f, 127.0f}).b, 255);
}

TEST(Lab8, DecodeInvertsEncodeWithinStep) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const LabF lab{static_cast<float>(rng.next_double(0.0, 100.0)),
                   static_cast<float>(rng.next_double(-100.0, 100.0)),
                   static_cast<float>(rng.next_double(-100.0, 100.0))};
    const LabF back = decode_lab8(encode_lab8(lab));
    EXPECT_NEAR(back.L, lab.L, 100.0 / 255.0 / 2.0 + 1e-3);
    EXPECT_NEAR(back.a, lab.a, 0.51);
    EXPECT_NEAR(back.b, lab.b, 0.51);
  }
}

TEST(Lab8, EncodeClampsOutOfRange) {
  EXPECT_EQ(encode_lab8({150.0f, 0.0f, 0.0f}).L, 255);
  EXPECT_EQ(encode_lab8({-10.0f, 200.0f, -200.0f}).L, 0);
  EXPECT_EQ(encode_lab8({0.0f, 200.0f, 0.0f}).a, 255);
}

// --------------------------------------------------------- LUT color unit

TEST(LutColorUnit, MatchesReferenceWithinTolerance) {
  // The point of the 8-bit LUT design (Section 6.1): the integer pipeline
  // tracks the double-precision reference closely. The a/b channels
  // amplify the PWL's f(.) error by 500x/200x, so the worst-case envelope
  // is a few 8-bit steps; the mean error must stay below one step. (The
  // segmentation-quality consequence is tested end-to-end in
  // HwSlic.MatchesFloatPpaQuality.)
  const LutColorUnit unit;
  Rng rng(42);
  int max_err = 0;
  double err_sum = 0.0;
  constexpr int kSamples = 4000;
  for (int i = 0; i < kSamples; ++i) {
    const Rgb8 rgb{static_cast<std::uint8_t>(rng.next_int(0, 255)),
                   static_cast<std::uint8_t>(rng.next_int(0, 255)),
                   static_cast<std::uint8_t>(rng.next_int(0, 255))};
    const Lab8 hw = unit.convert(rgb);
    const Lab8 ref = encode_lab8(srgb_to_lab(rgb));
    const int err = std::max({std::abs(hw.L - ref.L), std::abs(hw.a - ref.a),
                              std::abs(hw.b - ref.b)});
    max_err = std::max(max_err, err);
    err_sum += err;
  }
  EXPECT_LE(max_err, 6);
  EXPECT_LE(err_sum / kSamples, 2.5);
}

TEST(LutColorUnit, ExactOnNeutrals) {
  const LutColorUnit unit;
  const Lab8 white = unit.convert({255, 255, 255});
  EXPECT_GE(white.L, 253);
  EXPECT_NEAR(white.a, 128, 2);
  EXPECT_NEAR(white.b, 128, 2);
  const Lab8 black = unit.convert({0, 0, 0});
  EXPECT_LE(black.L, 1);
}

TEST(LutColorUnit, PlanarLayoutMatchesInterleaved) {
  const LutColorUnit unit;
  RgbImage img(4, 3);
  Rng rng(7);
  for (auto& px : img.pixels())
    px = {static_cast<std::uint8_t>(rng.next_int(0, 255)),
          static_cast<std::uint8_t>(rng.next_int(0, 255)),
          static_cast<std::uint8_t>(rng.next_int(0, 255))};
  const Planar8 planes = unit.convert(img);
  const Image<Lab8> inter = unit.convert_interleaved(img);
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 4; ++x) {
      EXPECT_EQ(planes.ch1(x, y), inter(x, y).L);
      EXPECT_EQ(planes.ch2(x, y), inter(x, y).a);
      EXPECT_EQ(planes.ch3(x, y), inter(x, y).b);
    }
  }
}

TEST(LutColorUnit, PwlApproximatesLabF) {
  const LutColorUnit unit;
  const int frac = unit.config().internal_frac_bits;
  const double scale = std::ldexp(1.0, frac);
  double max_err = 0.0;
  for (int t = 0; t <= (1 << frac); t += 3) {
    const double approx = unit.pwl_lab_f(t) / scale;
    const double exact = lab_f(t / scale);
    max_err = std::max(max_err, std::fabs(approx - exact));
  }
  // 8 power-of-two segments keep the PWL within ~1.5% absolute everywhere,
  // enough for 8-bit output accuracy.
  EXPECT_LT(max_err, 0.015);
}

TEST(LutColorUnit, MorePwlSegmentsReduceError) {
  const double scale = std::ldexp(1.0, 12);
  double prev_err = 1e9;
  for (const int segments : {4, 8, 12}) {
    LutColorUnit::Config config;
    config.pwl_segments = segments;
    const LutColorUnit unit(config);
    double max_err = 0.0;
    for (int t = 0; t <= (1 << 12); t += 7) {
      max_err = std::max(max_err,
                         std::fabs(unit.pwl_lab_f(t) / scale - lab_f(t / scale)));
    }
    EXPECT_LT(max_err, prev_err) << segments << " segments";
    prev_err = max_err;
  }
}

TEST(LutColorUnit, LutStorageMatchesConfig) {
  const LutColorUnit unit;
  // 256 gamma entries + 9 node positions + 9 node values + 8 slopes,
  // 13-bit entries packed into 2 bytes each.
  EXPECT_EQ(unit.lut_storage_bytes(), (256u + 9u + 9u + 8u) * 2u);
}

TEST(LutColorUnit, InvalidConfigThrows) {
  LutColorUnit::Config config;
  config.pwl_segments = 30;
  EXPECT_THROW(LutColorUnit{config}, ContractViolation);
  config.pwl_segments = 8;
  config.internal_frac_bits = 2;
  EXPECT_THROW(LutColorUnit{config}, ContractViolation);
}

TEST(LutColorUnit, DeterministicAcrossInstances) {
  const LutColorUnit a, b;
  for (int v = 0; v < 256; v += 5) {
    const Rgb8 rgb{static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(255 - v),
                   static_cast<std::uint8_t>(v / 2)};
    EXPECT_EQ(a.convert(rgb), b.convert(rgb));
  }
}

}  // namespace
}  // namespace sslic
