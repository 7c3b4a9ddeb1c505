// google-benchmark microbenchmarks of the hot kernels: color conversion
// (reference float and LUT integer), the 9-way distance + 9:1 minimum inner
// loop, the SIMD assignment row kernels per backend, full algorithm
// iterations, the quality metrics, and connectivity enforcement.
//
// After the google-benchmark pass, a custom main() runs one instrumented
// CPA and PPA frame and prints an analytic roofline summary: the
// Instrumentation op and byte counts against the measured wall time.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "color/color_convert.h"
#include "color/lut_color_unit.h"
#include "common/rng.h"
#include "common/simd.h"
#include "dataset/synthetic.h"
#include "metrics/segmentation_metrics.h"
#include "slic/assign_kernels.h"
#include "slic/connectivity.h"
#include "slic/hw_datapath.h"
#include "slic/slic_baseline.h"
#include "slic/subsampled.h"

namespace {

using namespace sslic;

const GroundTruthImage& test_image() {
  static const GroundTruthImage gt = [] {
    SyntheticParams p;  // BSDS-sized
    return generate_synthetic(p, 42);
  }();
  return gt;
}

void BM_ColorConvertReference(benchmark::State& state) {
  const RgbImage& img = test_image().image;
  for (auto _ : state) {
    LabImage lab = srgb_to_lab(img);
    benchmark::DoNotOptimize(lab.L.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(img.size()));
}
BENCHMARK(BM_ColorConvertReference);

void BM_ColorConvertLut(benchmark::State& state) {
  const RgbImage& img = test_image().image;
  const LutColorUnit unit;
  for (auto _ : state) {
    Planar8 planes = unit.convert(img);
    benchmark::DoNotOptimize(planes.ch1.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(img.size()));
}
BENCHMARK(BM_ColorConvertLut);

void BM_NineWayIntegerDistanceMin(benchmark::State& state) {
  // The cluster-update inner loop: 9 distances + 9:1 min per pixel.
  std::vector<HwCenter> centers(9);
  for (int i = 0; i < 9; ++i)
    centers[static_cast<std::size_t>(i)] = {i * 20, 128 - i, 128 + i, i * 10,
                                            i * 7};
  const Lab8 pixel{90, 130, 120};
  for (auto _ : state) {
    std::int32_t best = INT32_MAX;
    std::int32_t best_i = 0;
    for (std::int32_t i = 0; i < 9; ++i) {
      const std::int32_t d = HwSlic::integer_distance(
          pixel, 45, 33, centers[static_cast<std::size_t>(i)], 64);
      if (d < best) {
        best = d;
        best_i = i;
      }
    }
    benchmark::DoNotOptimize(best_i);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NineWayIntegerDistanceMin);

/// Registers one Arg per ISA this binary + CPU can execute (scalar always);
/// the per-run label names the backend.
void SimdIsaArgs(benchmark::internal::Benchmark* b) {
  b->Arg(static_cast<int>(simd::Isa::kScalar));
  for (const simd::Isa isa : {simd::Isa::kSse2, simd::Isa::kAvx2,
                              simd::Isa::kAvx512, simd::Isa::kNeon}) {
    if (kernels::backend_compiled(isa) && simd::cpu_supports(isa))
      b->Arg(static_cast<int>(isa));
  }
}

/// Fixed row workload shared by the SIMD kernel benchmarks (one 481-px
/// BSDS-width row, 9 candidates).
struct KernelRow {
  static constexpr int kWidth = 481;
  std::vector<float> L, a, b;
  std::vector<std::uint8_t> L8, a8, b8;
  std::vector<double> min_dist;
  std::vector<std::int32_t> labels;
  kernels::CenterOperand center{50.0, 5.0, -3.0, 240.0, 160.0, 7};
  std::array<kernels::CenterOperand, 9> cands{};
  std::array<kernels::HwCenterOperand, 9> hw_cands{};

  KernelRow() {
    Rng rng(77);
    L.resize(kWidth);
    a.resize(kWidth);
    b.resize(kWidth);
    L8.resize(kWidth);
    a8.resize(kWidth);
    b8.resize(kWidth);
    min_dist.assign(kWidth, std::numeric_limits<double>::infinity());
    labels.assign(kWidth, 0);
    for (int i = 0; i < kWidth; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      L[idx] = static_cast<float>(rng.next_double(0.0, 100.0));
      a[idx] = static_cast<float>(rng.next_double(-90.0, 90.0));
      b[idx] = static_cast<float>(rng.next_double(-90.0, 90.0));
      L8[idx] = static_cast<std::uint8_t>(rng.next_int(0, 255));
      a8[idx] = static_cast<std::uint8_t>(rng.next_int(0, 255));
      b8[idx] = static_cast<std::uint8_t>(rng.next_int(0, 255));
    }
    for (int k = 0; k < 9; ++k) {
      const auto idx = static_cast<std::size_t>(k);
      cands[idx] = {rng.next_double(0.0, 100.0), rng.next_double(-90.0, 90.0),
                    rng.next_double(-90.0, 90.0),
                    rng.next_double(0.0, kWidth),  rng.next_double(0.0, 321.0),
                    k};
      hw_cands[idx] = {rng.next_int(0, 255), rng.next_int(0, 255),
                       rng.next_int(0, 255), rng.next_int(0, kWidth - 1),
                       rng.next_int(0, 320), k};
    }
  }
};

const KernelRow& kernel_row() {
  static const KernelRow row;
  return row;
}

void BM_SimdAssignCenterRow(benchmark::State& state) {
  const auto isa = static_cast<simd::Isa>(state.range(0));
  const kernels::KernelTable& kt = kernels::table_for(isa);
  const KernelRow& row = kernel_row();
  std::vector<double> min_dist = row.min_dist;
  std::vector<std::int32_t> labels = row.labels;
  for (auto _ : state) {
    kt.assign_center_row(row.L.data(), row.a.data(), row.b.data(), 0,
                         KernelRow::kWidth, 160.0, row.center, 0.25,
                         min_dist.data(), labels.data());
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetLabel(simd::isa_name(isa));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          KernelRow::kWidth);
}
BENCHMARK(BM_SimdAssignCenterRow)->Apply(SimdIsaArgs);

void BM_SimdAssignCandidatesRow(benchmark::State& state) {
  const auto isa = static_cast<simd::Isa>(state.range(0));
  const kernels::KernelTable& kt = kernels::table_for(isa);
  const KernelRow& row = kernel_row();
  std::vector<double> min_dist = row.min_dist;
  std::vector<std::int32_t> labels = row.labels;
  for (auto _ : state) {
    kt.assign_candidates_row(row.L.data(), row.a.data(), row.b.data(), 0,
                             KernelRow::kWidth, 160.0, row.cands.data(), 9,
                             0.25, nullptr, min_dist.data(), labels.data());
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetLabel(simd::isa_name(isa));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          KernelRow::kWidth);
}
BENCHMARK(BM_SimdAssignCandidatesRow)->Apply(SimdIsaArgs);

void BM_SimdAssignCandidatesRowU8(benchmark::State& state) {
  const auto isa = static_cast<simd::Isa>(state.range(0));
  const kernels::KernelTable& kt = kernels::table_for(isa);
  const KernelRow& row = kernel_row();
  std::vector<std::int32_t> labels = row.labels;
  for (auto _ : state) {
    kt.assign_candidates_row_u8(row.L8.data(), row.a8.data(), row.b8.data(),
                                0, KernelRow::kWidth, 160, row.hw_cands.data(),
                                9, 64, 8, 6, nullptr, labels.data());
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetLabel(simd::isa_name(isa));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          KernelRow::kWidth);
}
BENCHMARK(BM_SimdAssignCandidatesRowU8)->Apply(SimdIsaArgs);

void BM_PpaIteration(benchmark::State& state) {
  const GroundTruthImage& gt = test_image();
  const LabImage lab = srgb_to_lab(gt.image);
  SlicParams params;
  params.num_superpixels = 900;
  params.max_iterations = static_cast<int>(state.range(0));
  params.subsample_ratio = 0.5;
  params.enforce_connectivity = false;
  const PpaSlic slic(params);
  for (auto _ : state) {
    Segmentation seg = slic.segment_lab(lab);
    benchmark::DoNotOptimize(seg.labels.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lab.size()) *
                          state.range(0) / 2);
}
BENCHMARK(BM_PpaIteration)->Arg(1)->Arg(4);

void BM_CpaIteration(benchmark::State& state) {
  const GroundTruthImage& gt = test_image();
  const LabImage lab = srgb_to_lab(gt.image);
  SlicParams params;
  params.num_superpixels = 900;
  params.max_iterations = 1;
  params.enforce_connectivity = false;
  const CpaSlic slic(params);
  for (auto _ : state) {
    Segmentation seg = slic.segment_lab(lab);
    benchmark::DoNotOptimize(seg.labels.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lab.size()));
}
BENCHMARK(BM_CpaIteration);

void BM_HwGoldenModelFrame(benchmark::State& state) {
  const GroundTruthImage& gt = test_image();
  HwConfig config;
  config.num_superpixels = 900;
  config.iterations = 4;
  for (auto _ : state) {
    Segmentation seg = HwSlic(config).segment(gt.image);
    benchmark::DoNotOptimize(seg.labels.data());
  }
}
BENCHMARK(BM_HwGoldenModelFrame);

void BM_UndersegmentationError(benchmark::State& state) {
  const GroundTruthImage& gt = test_image();
  SlicParams params;
  params.num_superpixels = 900;
  params.max_iterations = 2;
  const Segmentation seg = PpaSlic(params).segment(gt.image);
  for (auto _ : state) {
    const double use = undersegmentation_error(seg.labels, gt.truth);
    benchmark::DoNotOptimize(use);
  }
}
BENCHMARK(BM_UndersegmentationError);

void BM_BoundaryRecall(benchmark::State& state) {
  const GroundTruthImage& gt = test_image();
  SlicParams params;
  params.num_superpixels = 900;
  params.max_iterations = 2;
  const Segmentation seg = PpaSlic(params).segment(gt.image);
  for (auto _ : state) {
    const double recall = boundary_recall(seg.labels, gt.truth, 2);
    benchmark::DoNotOptimize(recall);
  }
}
BENCHMARK(BM_BoundaryRecall);

void BM_ConnectivityEnforcement(benchmark::State& state) {
  const GroundTruthImage& gt = test_image();
  SlicParams params;
  params.num_superpixels = 900;
  params.max_iterations = 2;
  params.enforce_connectivity = false;
  const Segmentation seg = PpaSlic(params).segment(gt.image);
  for (auto _ : state) {
    LabelImage labels = seg.labels;
    enforce_connectivity(labels, 900);
    benchmark::DoNotOptimize(labels.data());
  }
}
BENCHMARK(BM_ConnectivityEnforcement);

// Runs one instrumented CPA frame and one PPA frame and prints their
// analytic per-frame op/byte totals against the measured wall time.
void roofline_summary() {
  std::cout << "\n==================================================================\n"
            << "per-phase roofline summary (BSDS frame, K=900, 4 iterations)\n"
            << "==================================================================\n";

  const GroundTruthImage& gt = test_image();
  SlicParams params;
  params.num_superpixels = 900;
  params.max_iterations = 4;

  Instrumentation cpa_instr;
  Stopwatch cpa_watch;
  (void)CpaSlic(params).segment(gt.image, {}, &cpa_instr);
  const double cpa_ms = cpa_watch.elapsed_ms();

  params.subsample_ratio = 0.5;
  Instrumentation ppa_instr;
  Stopwatch ppa_watch;
  (void)PpaSlic(params).segment(gt.image, {}, &ppa_instr);
  const double ppa_ms = ppa_watch.elapsed_ms();

  Table analytic("analytic roofline per frame (Instrumentation convention)");
  analytic.set_header(
      {"impl", "ms", "ops", "bytes", "ops/B", "GOP/s", "GB/s"});
  const auto add = [&](const char* name, const Instrumentation& instr,
                       double ms) {
    const auto ops = static_cast<double>(instr.ops.total_ops());
    const auto bytes = static_cast<double>(instr.traffic.total());
    analytic.add_row({name, Table::num(ms, 1), Table::si(ops, 1),
                      Table::si(bytes, 1) + "B",
                      Table::num(ops / std::max(1.0, bytes), 2),
                      Table::num(ops / (ms / 1e3) / 1e9, 2),
                      Table::num(bytes / (ms / 1e3) / 1e9, 2)});
  };
  add("CPA", cpa_instr, cpa_ms);
  add("PPA(0.5)", ppa_instr, ppa_ms);
  std::cout << analytic;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  roofline_summary();
  return 0;
}
