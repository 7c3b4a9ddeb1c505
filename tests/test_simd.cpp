// Tests for the SIMD assignment kernels and their runtime dispatch: every
// vector backend compiled into the binary (and supported by this CPU) must
// produce byte-identical min-distances and labels to the scalar reference —
// across odd widths, unaligned row starts, every tail length, subset masks,
// and distance ties (equal distances must keep the lowest center index).
// The end-to-end tests assert the same for whole CpaSlic/PpaSlic/HwSlic
// runs through the ISA override.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/telemetry.h"
#include "dataset/synthetic.h"
#include "slic/assign_kernels.h"
#include "slic/hw_datapath.h"
#include "slic/slic_baseline.h"
#include "slic/subsampled.h"
#include "slic/types.h"

namespace sslic {
namespace {

/// Restores the process-wide ISA preference (env/auto detection) on scope
/// exit so tests cannot leak an override into each other.
struct IsaGuard {
  ~IsaGuard() { simd::reset_preferred_isa(); }
};

/// The vector backends this binary can both execute and has compiled in.
std::vector<simd::Isa> testable_vector_isas() {
  std::vector<simd::Isa> isas;
  for (const simd::Isa isa :
       {simd::Isa::kSse2, simd::Isa::kAvx2, simd::Isa::kAvx512,
        simd::Isa::kNeon}) {
    if (kernels::backend_compiled(isa) && simd::cpu_supports(isa))
      isas.push_back(isa);
  }
  return isas;
}

TEST(SimdDispatch, ParseNamesRoundTrip) {
  // Every enum value must round-trip through its name — including ISAs this
  // binary or CPU cannot run (parsing is pure string handling).
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kSse2, simd::Isa::kAvx2,
        simd::Isa::kAvx512, simd::Isa::kNeon}) {
    simd::Isa parsed = simd::Isa::kScalar;
    ASSERT_TRUE(simd::parse_isa(simd::isa_name(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  simd::Isa parsed = simd::Isa::kAvx2;
  EXPECT_TRUE(simd::parse_isa("off", &parsed));
  EXPECT_EQ(parsed, simd::Isa::kScalar);
  EXPECT_TRUE(simd::parse_isa("NONE", &parsed));
  EXPECT_EQ(parsed, simd::Isa::kScalar);
  // Unknown names fail and leave the output untouched.
  parsed = simd::Isa::kAvx2;
  EXPECT_FALSE(simd::parse_isa("avx1024", &parsed));
  EXPECT_EQ(parsed, simd::Isa::kAvx2);
}

TEST(SimdDispatch, OverrideClampsToCpuAndBinary) {
  IsaGuard guard;
  simd::set_preferred_isa(simd::Isa::kScalar);
  EXPECT_EQ(kernels::active_isa(), simd::Isa::kScalar);
  // Requesting more than the CPU/binary offers degrades, never crashes —
  // for every rung of the ladder.
  for (const simd::Isa want :
       {simd::Isa::kSse2, simd::Isa::kAvx2, simd::Isa::kAvx512,
        simd::Isa::kNeon}) {
    simd::set_preferred_isa(want);
    const simd::Isa resolved = kernels::active_isa();
    EXPECT_TRUE(kernels::backend_compiled(resolved))
        << "want=" << simd::isa_name(want);
    EXPECT_TRUE(simd::cpu_supports(resolved))
        << "want=" << simd::isa_name(want);
  }
  // A scalar table is always available.
  EXPECT_TRUE(kernels::backend_compiled(simd::Isa::kScalar));
}

TEST(SimdDispatch, ClampIsDeterministicAndReportedViaTelemetry) {
  // Requesting an ISA the CPU or binary lacks (e.g. SSLIC_SIMD=avx512 on an
  // AVX2-only host) must clamp downward to the same effective ISA on every
  // resolution, and that effective ISA must be visible to telemetry readers
  // as the `sslic.simd.active_isa` gauge.
  IsaGuard guard;
  auto& registry = telemetry::MetricsRegistry::global();
  for (const simd::Isa want :
       {simd::Isa::kScalar, simd::Isa::kSse2, simd::Isa::kAvx2,
        simd::Isa::kAvx512, simd::Isa::kNeon}) {
    simd::set_preferred_isa(want);
    const simd::Isa first = kernels::active_isa();
    const simd::Isa second = kernels::active_isa();
    ASSERT_EQ(first, second) << "want=" << simd::isa_name(want);
    // The clamp never resolves upward past the request on the x86 ladder,
    // and always lands on something this machine can actually run.
    EXPECT_TRUE(kernels::backend_compiled(first))
        << "want=" << simd::isa_name(want);
    EXPECT_TRUE(simd::cpu_supports(first)) << "want=" << simd::isa_name(want);
    EXPECT_EQ(registry.gauge("sslic.simd.active_isa").value(),
              static_cast<double>(first))
        << "want=" << simd::isa_name(want);
  }
  // String overrides clamp identically (the SSLIC_SIMD env path).
  simd::set_preferred_isa("avx512");
  const simd::Isa via_string = kernels::active_isa();
  simd::set_preferred_isa(simd::Isa::kAvx512);
  EXPECT_EQ(kernels::active_isa(), via_string);
  EXPECT_EQ(registry.gauge("sslic.simd.active_isa").value(),
            static_cast<double>(via_string));
}

/// Shared fuzz fixture state: planar float rows with a deliberately odd
/// amount of slack so the kernels see arbitrary (unaligned) row starts.
struct FloatRows {
  std::vector<float> L, a, b;
  std::vector<double> min_dist;
  std::vector<std::int32_t> labels;
  std::vector<std::uint8_t> active;
};

FloatRows make_float_rows(Rng& rng, std::size_t size) {
  FloatRows rows;
  rows.L.resize(size);
  rows.a.resize(size);
  rows.b.resize(size);
  rows.min_dist.resize(size);
  rows.labels.resize(size);
  rows.active.resize(size);
  for (std::size_t i = 0; i < size; ++i) {
    rows.L[i] = static_cast<float>(rng.next_double(0.0, 100.0));
    rows.a[i] = static_cast<float>(rng.next_double(-90.0, 90.0));
    rows.b[i] = static_cast<float>(rng.next_double(-90.0, 90.0));
    // Mix of "fresh" (infinity) and already-tight running minima so both
    // branches of the compare are exercised.
    rows.min_dist[i] = rng.next_bool(0.3)
                           ? std::numeric_limits<double>::infinity()
                           : rng.next_double(0.0, 4000.0);
    rows.labels[i] = rng.next_int(0, 500);
    rows.active[i] = rng.next_bool(0.6) ? 1 : 0;
  }
  return rows;
}

kernels::CenterOperand random_center(Rng& rng, int max_xy,
                                     std::int32_t index) {
  return {rng.next_double(0.0, 100.0), rng.next_double(-90.0, 90.0),
          rng.next_double(-90.0, 90.0),
          rng.next_double(0.0, static_cast<double>(max_xy)),
          rng.next_double(0.0, static_cast<double>(max_xy)), index};
}

TEST(SimdKernels, AssignCenterRowMatchesScalarExactly) {
  const std::vector<simd::Isa> isas = testable_vector_isas();
  if (isas.empty()) GTEST_SKIP() << "no vector backend compiled for this CPU";
  const kernels::KernelTable& scalar = kernels::scalar_table();

  Rng rng(0x51c0ffee);
  for (int trial = 0; trial < 300; ++trial) {
    // Odd widths and every tail length 0..lanes-1 (widths 1..37 cover both
    // 2-, 4-, and 8-lane tails), plus an arbitrary start offset so rows are
    // unaligned relative to the allocation.
    const std::int32_t count = rng.next_int(1, 37);
    const std::size_t offset = static_cast<std::size_t>(rng.next_int(0, 7));
    const std::int32_t x0 = rng.next_int(0, 400);
    const double y = static_cast<double>(rng.next_int(0, 300));
    const double weight = rng.next_double(0.001, 2.0);
    const kernels::CenterOperand center =
        random_center(rng, 400, rng.next_int(0, 99));
    const FloatRows base =
        make_float_rows(rng, offset + static_cast<std::size_t>(count));

    FloatRows ref = base;
    scalar.assign_center_row(ref.L.data() + offset, ref.a.data() + offset,
                             ref.b.data() + offset, x0, count, y, center,
                             weight, ref.min_dist.data() + offset,
                             ref.labels.data() + offset);
    for (const simd::Isa isa : isas) {
      FloatRows got = base;
      kernels::table_for(isa).assign_center_row(
          got.L.data() + offset, got.a.data() + offset, got.b.data() + offset,
          x0, count, y, center, weight, got.min_dist.data() + offset,
          got.labels.data() + offset);
      ASSERT_EQ(std::memcmp(got.min_dist.data(), ref.min_dist.data(),
                            ref.min_dist.size() * sizeof(double)),
                0)
          << "min_dist diverged, isa=" << simd::isa_name(isa)
          << " trial=" << trial;
      ASSERT_EQ(got.labels, ref.labels)
          << "labels diverged, isa=" << simd::isa_name(isa)
          << " trial=" << trial;
    }
  }
}

TEST(SimdKernels, AssignCenterRowTieKeepsExistingLabel) {
  // Re-running the identical center with a different index produces equal
  // distances everywhere; the strict `<` must keep the first label.
  const std::vector<simd::Isa> isas = testable_vector_isas();
  Rng rng(7);
  const std::int32_t count = 23;
  const FloatRows base = make_float_rows(rng, static_cast<std::size_t>(count));
  kernels::CenterOperand center = random_center(rng, 100, 3);
  std::vector<simd::Isa> all = isas;
  all.push_back(simd::Isa::kScalar);
  for (const simd::Isa isa : all) {
    FloatRows rows = base;
    const kernels::KernelTable& kt = kernels::table_for(isa);
    kt.assign_center_row(rows.L.data(), rows.a.data(), rows.b.data(), 5, count,
                         9.0, center, 0.5, rows.min_dist.data(),
                         rows.labels.data());
    const std::vector<std::int32_t> first = rows.labels;
    kernels::CenterOperand twin = center;
    twin.index = 77;
    kt.assign_center_row(rows.L.data(), rows.a.data(), rows.b.data(), 5, count,
                         9.0, twin, 0.5, rows.min_dist.data(),
                         rows.labels.data());
    EXPECT_EQ(rows.labels, first) << "isa=" << simd::isa_name(isa);
  }
}

TEST(SimdKernels, AssignCandidatesRowMatchesScalarExactly) {
  const std::vector<simd::Isa> isas = testable_vector_isas();
  if (isas.empty()) GTEST_SKIP() << "no vector backend compiled for this CPU";
  const kernels::KernelTable& scalar = kernels::scalar_table();

  Rng rng(0xbadc0de);
  for (int trial = 0; trial < 300; ++trial) {
    const std::int32_t count = rng.next_int(1, 37);
    const std::size_t offset = static_cast<std::size_t>(rng.next_int(0, 7));
    const std::int32_t x0 = rng.next_int(0, 400);
    const double y = static_cast<double>(rng.next_int(0, 300));
    const double weight = rng.next_double(0.001, 2.0);
    const std::int32_t ncand = rng.next_int(1, 9);
    std::array<kernels::CenterOperand, 9> cands;
    for (std::int32_t k = 0; k < ncand; ++k)
      cands[static_cast<std::size_t>(k)] = random_center(rng, 400, k * 11);
    if (ncand >= 2 && rng.next_bool(0.5)) {
      // Duplicate candidate with a different index: equal distances must
      // resolve to the earlier slot in every lane.
      kernels::CenterOperand dup = cands[0];
      dup.index = 999;
      cands[static_cast<std::size_t>(ncand - 1)] = dup;
    }
    const FloatRows base =
        make_float_rows(rng, offset + static_cast<std::size_t>(count));
    // Mask modes: all pixels (null), random subset, every pixel masked off.
    const int mask_mode = rng.next_int(0, 2);

    FloatRows ref = base;
    if (mask_mode == 2)
      std::fill(ref.active.begin(), ref.active.end(), std::uint8_t{0});
    const std::uint8_t* ref_mask =
        mask_mode == 0 ? nullptr : ref.active.data() + offset;
    scalar.assign_candidates_row(ref.L.data() + offset, ref.a.data() + offset,
                                 ref.b.data() + offset, x0, count, y,
                                 cands.data(), ncand, weight, ref_mask,
                                 ref.labels.data() + offset);
    for (const simd::Isa isa : isas) {
      FloatRows got = base;
      if (mask_mode == 2)
        std::fill(got.active.begin(), got.active.end(), std::uint8_t{0});
      const std::uint8_t* got_mask =
          mask_mode == 0 ? nullptr : got.active.data() + offset;
      kernels::table_for(isa).assign_candidates_row(
          got.L.data() + offset, got.a.data() + offset, got.b.data() + offset,
          x0, count, y, cands.data(), ncand, weight, got_mask,
          got.labels.data() + offset);
      ASSERT_EQ(got.labels, ref.labels)
          << "labels diverged, isa=" << simd::isa_name(isa)
          << " trial=" << trial << " mask_mode=" << mask_mode;
    }
  }
}

TEST(SimdKernels, AssignCandidatesRowU8MatchesScalarExactly) {
  const std::vector<simd::Isa> isas = testable_vector_isas();
  if (isas.empty()) GTEST_SKIP() << "no vector backend compiled for this CPU";
  const kernels::KernelTable& scalar = kernels::scalar_table();

  Rng rng(0x8b17);
  for (int trial = 0; trial < 300; ++trial) {
    const std::int32_t count = rng.next_int(1, 41);
    const std::size_t offset = static_cast<std::size_t>(rng.next_int(0, 7));
    const std::size_t size = offset + static_cast<std::size_t>(count);
    const std::int32_t x0 = rng.next_int(0, 600);
    const std::int32_t y = rng.next_int(0, 400);
    const std::int32_t weight_q8 = rng.next_int(1, 4096);
    const std::int32_t dist_bits = rng.next_bool(0.5) ? 0 : rng.next_int(4, 16);
    const std::int32_t dist_shift = dist_bits == 0 ? 0 : rng.next_int(0, 10);
    const std::int32_t ncand = rng.next_int(1, 9);
    std::array<kernels::HwCenterOperand, 9> cands;
    for (std::int32_t k = 0; k < ncand; ++k) {
      cands[static_cast<std::size_t>(k)] = {
          rng.next_int(0, 255), rng.next_int(0, 255), rng.next_int(0, 255),
          rng.next_int(0, 700), rng.next_int(0, 500), k * 7};
    }
    if (ncand >= 2 && rng.next_bool(0.5)) {
      kernels::HwCenterOperand dup = cands[0];
      dup.index = 888;
      cands[static_cast<std::size_t>(ncand - 1)] = dup;
    }
    std::vector<std::uint8_t> L(size), a(size), b(size), active(size);
    std::vector<std::int32_t> labels(size);
    for (std::size_t i = 0; i < size; ++i) {
      L[i] = static_cast<std::uint8_t>(rng.next_int(0, 255));
      a[i] = static_cast<std::uint8_t>(rng.next_int(0, 255));
      b[i] = static_cast<std::uint8_t>(rng.next_int(0, 255));
      active[i] = rng.next_bool(0.6) ? 1 : 0;
      labels[i] = rng.next_int(0, 500);
    }
    const int mask_mode = rng.next_int(0, 1);
    const std::uint8_t* mask = mask_mode == 0 ? nullptr : active.data() + offset;

    std::vector<std::int32_t> ref = labels;
    scalar.assign_candidates_row_u8(L.data() + offset, a.data() + offset,
                                    b.data() + offset, x0, count, y,
                                    cands.data(), ncand, weight_q8, dist_bits,
                                    dist_shift, mask, ref.data() + offset);
    for (const simd::Isa isa : isas) {
      std::vector<std::int32_t> got = labels;
      kernels::table_for(isa).assign_candidates_row_u8(
          L.data() + offset, a.data() + offset, b.data() + offset, x0, count,
          y, cands.data(), ncand, weight_q8, dist_bits, dist_shift, mask,
          got.data() + offset);
      ASSERT_EQ(got, ref) << "labels diverged, isa=" << simd::isa_name(isa)
                          << " trial=" << trial;
    }
  }
}

/// End-to-end: a full segmentation must be byte-identical under every ISA.
class SimdEndToEnd : public ::testing::Test {
 protected:
  static RgbImage test_image() {
    SyntheticParams params;
    params.width = 160;
    params.height = 120;
    return generate_synthetic(params, 0x5eed).image;
  }
};

TEST_F(SimdEndToEnd, CpaLabelsAndCentersIdenticalAcrossIsas) {
  IsaGuard guard;
  const RgbImage image = test_image();
  SlicParams params;
  params.num_superpixels = 60;
  params.max_iterations = 4;

  simd::set_preferred_isa(simd::Isa::kScalar);
  const Segmentation ref = CpaSlic(params).segment(image);
  for (const simd::Isa isa : testable_vector_isas()) {
    simd::set_preferred_isa(isa);
    const Segmentation got = CpaSlic(params).segment(image);
    ASSERT_EQ(got.labels.pixels(), ref.labels.pixels())
        << "isa=" << simd::isa_name(isa);
    ASSERT_EQ(std::memcmp(got.centers.data(), ref.centers.data(),
                          ref.centers.size() * sizeof(ClusterCenter)),
              0)
        << "isa=" << simd::isa_name(isa);
  }
}

TEST_F(SimdEndToEnd, PpaLabelsAndCentersIdenticalAcrossIsas) {
  IsaGuard guard;
  const RgbImage image = test_image();
  SlicParams params;
  params.num_superpixels = 60;
  params.max_iterations = 4;
  params.subsample_ratio = 0.25;

  simd::set_preferred_isa(simd::Isa::kScalar);
  const Segmentation ref = PpaSlic(params).segment(image);
  for (const simd::Isa isa : testable_vector_isas()) {
    simd::set_preferred_isa(isa);
    const Segmentation got = PpaSlic(params).segment(image);
    ASSERT_EQ(got.labels.pixels(), ref.labels.pixels())
        << "isa=" << simd::isa_name(isa);
    ASSERT_EQ(std::memcmp(got.centers.data(), ref.centers.data(),
                          ref.centers.size() * sizeof(ClusterCenter)),
              0)
        << "isa=" << simd::isa_name(isa);
  }
}

TEST_F(SimdEndToEnd, HwLabelsAndCentersIdenticalAcrossIsas) {
  IsaGuard guard;
  const RgbImage image = test_image();
  HwConfig config;
  config.num_superpixels = 60;
  config.iterations = 4;
  config.subsample_ratio = 0.25;
  config.distance_register_bits = 10;

  simd::set_preferred_isa(simd::Isa::kScalar);
  const Segmentation ref = HwSlic(config).segment(image);
  for (const simd::Isa isa : testable_vector_isas()) {
    simd::set_preferred_isa(isa);
    const Segmentation got = HwSlic(config).segment(image);
    ASSERT_EQ(got.labels.pixels(), ref.labels.pixels())
        << "isa=" << simd::isa_name(isa);
    ASSERT_EQ(std::memcmp(got.centers.data(), ref.centers.data(),
                          ref.centers.size() * sizeof(ClusterCenter)),
              0)
        << "isa=" << simd::isa_name(isa);
  }
}

}  // namespace
}  // namespace sslic
