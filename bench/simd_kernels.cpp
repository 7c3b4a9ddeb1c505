// SIMD assignment-kernel benchmark: scalar vs every vector backend this
// binary + CPU can run, for the three hot row kernels (CPA running-min,
// PPA 9-candidate argmin, 8-bit datapath 9-candidate argmin).
//
// Reports ns/pixel and effective GB/s per backend, the speedup of the best
// vector backend over scalar, and — before any timing is trusted — a
// byte-identity cross-check of every backend's output against the scalar
// reference on the same inputs (nonzero exit on mismatch: a fast wrong
// kernel is worthless).
//
// Emits BENCH_simd_kernels.json with the numbers plus machine metadata
// (CPU model, selected ISA), so CI and plotting scripts can consume them.
//
//   simd_kernels [--width=1920] [--rows=256] [--reps=40] [--simd=...]
#include <array>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/simd.h"
#include "slic/assign_kernels.h"

namespace {

using namespace sslic;

/// Backends runnable in this process, scalar first (the baseline).
std::vector<simd::Isa> runnable_isas() {
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  for (const simd::Isa isa : {simd::Isa::kSse2, simd::Isa::kAvx2,
                              simd::Isa::kAvx512, simd::Isa::kNeon}) {
    if (kernels::backend_compiled(isa) && simd::cpu_supports(isa))
      isas.push_back(isa);
  }
  return isas;
}

/// Shared random workload: `rows` independent row segments of `width`
/// pixels, with float and u8 channel planes, running-min state, and 9
/// candidate operands per row block.
struct Workload {
  int width = 0;
  int rows = 0;
  std::vector<float> L, a, b;
  std::vector<std::uint8_t> L8, a8, b8;
  std::vector<double> min_dist;
  std::vector<std::int32_t> labels;
  std::vector<kernels::CenterOperand> centers;        // one per row
  std::array<kernels::CenterOperand, 9> cands{};
  std::array<kernels::HwCenterOperand, 9> hw_cands{};
  double spatial_weight = 0.25;
  std::int32_t weight_q8 = 64;

  Workload(int width_, int rows_) : width(width_), rows(rows_) {
    const std::size_t n =
        static_cast<std::size_t>(width) * static_cast<std::size_t>(rows);
    L.resize(n);
    a.resize(n);
    b.resize(n);
    L8.resize(n);
    a8.resize(n);
    b8.resize(n);
    min_dist.resize(n);
    labels.resize(n);
    Rng rng(20260807);
    for (std::size_t i = 0; i < n; ++i) {
      L[i] = static_cast<float>(rng.next_double(0.0, 100.0));
      a[i] = static_cast<float>(rng.next_double(-90.0, 90.0));
      b[i] = static_cast<float>(rng.next_double(-90.0, 90.0));
      L8[i] = static_cast<std::uint8_t>(rng.next_int(0, 255));
      a8[i] = static_cast<std::uint8_t>(rng.next_int(0, 255));
      b8[i] = static_cast<std::uint8_t>(rng.next_int(0, 255));
      min_dist[i] = rng.next_bool(0.5)
                        ? std::numeric_limits<double>::infinity()
                        : rng.next_double(0.0, 4000.0);
      labels[i] = rng.next_int(0, 2000);
    }
    centers.resize(static_cast<std::size_t>(rows));
    for (int r = 0; r < rows; ++r) {
      centers[static_cast<std::size_t>(r)] = {
          rng.next_double(0.0, 100.0), rng.next_double(-90.0, 90.0),
          rng.next_double(-90.0, 90.0),
          rng.next_double(0.0, static_cast<double>(width)),
          static_cast<double>(r), r};
    }
    for (int k = 0; k < 9; ++k) {
      cands[static_cast<std::size_t>(k)] = {
          rng.next_double(0.0, 100.0), rng.next_double(-90.0, 90.0),
          rng.next_double(-90.0, 90.0),
          rng.next_double(0.0, static_cast<double>(width)),
          rng.next_double(0.0, static_cast<double>(rows)), k * 3};
      hw_cands[static_cast<std::size_t>(k)] = {
          rng.next_int(0, 255),       rng.next_int(0, 255),
          rng.next_int(0, 255),       rng.next_int(0, width - 1),
          rng.next_int(0, rows - 1),  k * 3};
    }
  }
};

/// Mutable per-run state (the buffers a kernel writes).
struct RunState {
  std::vector<double> min_dist;
  std::vector<std::int32_t> labels;
};

enum class Kernel { kCenterRow, kCandidatesRow, kCandidatesRowU8 };

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kCenterRow:
      return "assign_center_row";
    case Kernel::kCandidatesRow:
      return "assign_candidates_row";
    case Kernel::kCandidatesRowU8:
      return "assign_candidates_row_u8";
  }
  return "?";
}

/// Bytes streamed per pixel (reads + writes, nominal): used for the GB/s
/// column so backends are comparable; absolute bandwidth is approximate.
double bytes_per_pixel(Kernel k) {
  switch (k) {
    case Kernel::kCenterRow:
      return 3 * 4 + 8 + 4 + 8 + 4;  // 3 floats + min r/w + label r/w
    case Kernel::kCandidatesRow:
      return 3 * 4 + 8 + 4;  // 3 floats in, min + label out
    case Kernel::kCandidatesRowU8:
      return 3 * 1 + 4;  // 3 channel bytes in, label out
  }
  return 1.0;
}

/// Runs one full pass of `kernel` under `table` over the workload,
/// mutating `state`. One pass = every row once.
void run_pass(const kernels::KernelTable& table, Kernel kernel,
              const Workload& wl, RunState& state) {
  const std::int32_t width = wl.width;
  for (int r = 0; r < wl.rows; ++r) {
    const std::size_t off =
        static_cast<std::size_t>(r) * static_cast<std::size_t>(width);
    switch (kernel) {
      case Kernel::kCenterRow:
        table.assign_center_row(
            wl.L.data() + off, wl.a.data() + off, wl.b.data() + off, 0, width,
            static_cast<double>(r), wl.centers[static_cast<std::size_t>(r)],
            wl.spatial_weight, state.min_dist.data() + off,
            state.labels.data() + off);
        break;
      case Kernel::kCandidatesRow:
        table.assign_candidates_row(
            wl.L.data() + off, wl.a.data() + off, wl.b.data() + off, 0, width,
            static_cast<double>(r), wl.cands.data(), 9, wl.spatial_weight,
            nullptr, state.min_dist.data() + off, state.labels.data() + off);
        break;
      case Kernel::kCandidatesRowU8:
        table.assign_candidates_row_u8(
            wl.L8.data() + off, wl.a8.data() + off, wl.b8.data() + off, 0,
            width, r, wl.hw_cands.data(), 9, wl.weight_q8, 8, 6, nullptr,
            state.labels.data() + off);
        break;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int width = args.get_int("width", 1920);
  const int rows = args.get_int("rows", 256);
  const int reps = args.get_int("reps", 40);
  const std::string simd_request = args.get_string("simd", "");
  if (!simd_request.empty() && !simd::set_preferred_isa(simd_request)) {
    std::cerr << "unknown --simd value '" << simd_request << "'\n";
    return 2;
  }

  const std::vector<simd::Isa> isas = runnable_isas();
  const Workload wl(width, rows);
  const double total_pixels = static_cast<double>(width) *
                              static_cast<double>(rows) *
                              static_cast<double>(reps);

  std::cout << "==================================================================\n"
            << "SIMD assignment kernels — scalar vs vector backends\n"
            << "workload: " << rows << " rows x " << width << " px, " << reps
            << " passes per kernel\n"
            << "cpu: " << bench::cpu_model_name() << '\n'
            << "selected isa (dispatch default): "
            << simd::isa_name(kernels::active_isa()) << '\n'
            << "==================================================================\n";

  bool all_identical = true;
  bench::GateMetrics gate;
  bench::Json kernels_json = bench::Json::array();
  Table table("ns/pixel by backend (speedup vs scalar)");
  {
    std::vector<std::string> header = {"kernel"};
    for (const simd::Isa isa : isas) header.emplace_back(simd::isa_name(isa));
    header.emplace_back("best speedup");
    table.set_header(header);
  }

  for (const Kernel kernel :
       {Kernel::kCenterRow, Kernel::kCandidatesRow, Kernel::kCandidatesRowU8}) {
    // Identity cross-check first: every backend, same inputs, one pass.
    RunState ref{wl.min_dist, wl.labels};
    run_pass(kernels::scalar_table(), kernel, wl, ref);
    for (const simd::Isa isa : isas) {
      RunState got{wl.min_dist, wl.labels};
      run_pass(kernels::table_for(isa), kernel, wl, got);
      const bool same =
          got.labels == ref.labels &&
          std::memcmp(got.min_dist.data(), ref.min_dist.data(),
                      ref.min_dist.size() * sizeof(double)) == 0;
      if (!same) {
        std::cerr << "MISMATCH: " << kernel_name(kernel) << " on "
                  << simd::isa_name(isa) << " diverges from scalar\n";
        all_identical = false;
      }
    }

    // Timing: median-of-3 of `reps` passes per backend.
    double scalar_ns = 0.0;
    double best_vector_ns = std::numeric_limits<double>::infinity();
    std::string best_vector = "none";
    std::vector<std::string> row = {kernel_name(kernel)};
    bench::Json backends_json = bench::Json::array();
    for (const simd::Isa isa : isas) {
      const kernels::KernelTable& kt = kernels::table_for(isa);
      RunState state{wl.min_dist, wl.labels};
      run_pass(kt, kernel, wl, state);  // warm-up
      std::array<double, 3> samples{};
      for (double& sample : samples) {
        Stopwatch watch;
        for (int rep = 0; rep < reps; ++rep) run_pass(kt, kernel, wl, state);
        sample = watch.elapsed_ms();
      }
      std::sort(samples.begin(), samples.end());
      const double ns_per_pixel = samples[1] * 1e6 / total_pixels;
      const double gbps =
          bytes_per_pixel(kernel) / ns_per_pixel;  // B/ns == GB/s
      if (isa == simd::Isa::kScalar) {
        scalar_ns = ns_per_pixel;
      } else if (ns_per_pixel < best_vector_ns) {
        best_vector_ns = ns_per_pixel;
        best_vector = simd::isa_name(isa);
      }
      row.push_back(Table::num(ns_per_pixel, 3));
      backends_json.push(bench::Json::object()
                             .set("isa", simd::isa_name(isa))
                             .set("ns_per_pixel", ns_per_pixel)
                             .set("gb_per_s", gbps)
                             .set("speedup_vs_scalar",
                                  isa == simd::Isa::kScalar
                                      ? 1.0
                                      : scalar_ns / ns_per_pixel));
    }
    const double best_speedup =
        best_vector_ns < std::numeric_limits<double>::infinity()
            ? scalar_ns / best_vector_ns
            : 1.0;
    row.push_back(Table::num(best_speedup, 2) + "x (" + best_vector + ")");
    table.add_row(row);
    gate.lower_is_better(std::string(kernel_name(kernel)) + "_scalar_ns_per_pixel",
                         scalar_ns, "ns", 0.35)
        .higher_is_better(std::string(kernel_name(kernel)) + "_best_speedup",
                          best_speedup, "x", 0.35);
    kernels_json.push(bench::Json::object()
                          .set("kernel", kernel_name(kernel))
                          .set("bytes_per_pixel", bytes_per_pixel(kernel))
                          .set("backends", std::move(backends_json))
                          .set("best_vector_isa", best_vector)
                          .set("best_speedup_vs_scalar", best_speedup)
                          .set("outputs_identical", all_identical));
  }
  std::cout << table;
  std::cout << "identity cross-check: "
            << (all_identical ? "all backends byte-identical to scalar"
                              : "MISMATCH (see above)")
            << '\n';

  bench::Json::object()
      .set("bench", "simd_kernels")
      .set("workload", bench::Json::object()
                           .set("width", width)
                           .set("rows", rows)
                           .set("reps", reps)
                           .set("candidates", 9))
      .set("machine", bench::machine_json())
      .set("kernels", std::move(kernels_json))
      .set("all_outputs_identical", all_identical)
      .set("gate", gate.json())
      .write_file("BENCH_simd_kernels.json");
  return all_identical ? 0 : 1;
}
