// Fused single-pass iteration vs the classic two-pass loop (DESIGN.md §4e).
//
// Times the CPA software segmenter on a 1080p synthetic frame with the
// fused loop (assignment + sigma accumulation in one band sweep) and with
// the two-pass escape hatch (--no-fuse path), across thread counts
// 1..hardware, and reports ms/frame plus the modelled DRAM bytes per
// iteration for both. The fused loop's saving is exactly the update pass's
// re-read of the image and labels — n*(12+4) bytes per iteration — and the
// labels/centers are bit-identical either way (cross-checked here; enforced
// exhaustively by tests/test_fused.cpp).
//
// Both arms run through segment_lab_into with a persistent scratch, so the
// measured delta is the fusion itself, not allocation reuse.
//
// Emits BENCH_fused_iteration.json with the sweep, the measured traffic,
// and the paper's Table-2 per-iteration figures (318 MB classic CPA,
// 100 MB PPA) for context.
//
//   fused_iteration [--frames=5] [--width=1920 --height=1080]
//                   [--superpixels=2000] [--ratio=1.0]
//                   [--simd=scalar|sse2|avx2|avx512|neon]
#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "color/color_convert.h"
#include "common/thread_pool.h"
#include "slic/fusion.h"
#include "slic/slic_baseline.h"

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sslic;
  const CliArgs args(argc, argv);
  const int frames = args.get_int("frames", 5);
  const int width = args.get_int("width", 1920);
  const int height = args.get_int("height", 1080);
  const int superpixels = args.get_int("superpixels", 2000);
  const double ratio = args.get_double("ratio", 1.0);
  const std::string simd_request = args.get_string("simd", "");
  if (!simd_request.empty() && !simd::set_preferred_isa(simd_request)) {
    std::cerr << "unknown --simd value '" << simd_request << "'\n";
    return 2;
  }

  const int hw_threads = ThreadPool::default_threads();
  std::cout << "==================================================================\n"
            << "Fused iteration vs two-pass — CPA S-SLIC(" << ratio
            << ") software path\n"
            << "workload: " << width << 'x' << height << ", K=" << superpixels
            << ", " << frames << " timed frames per point (median reported)\n"
            << "machine: " << hw_threads << " hardware thread(s), "
            << bench::cpu_model_name() << '\n'
            << "simd: " << simd::isa_name(kernels::active_isa()) << '\n'
            << "==================================================================\n";

  SyntheticParams scene;
  scene.width = width;
  scene.height = height;
  const GroundTruthImage gt = generate_synthetic(scene, 4242);
  const LabImage lab = srgb_to_lab(gt.image);

  SlicParams params;
  params.num_superpixels = superpixels;
  params.subsample_ratio = ratio;
  const CpaSlic slic(params);

  struct Arm {
    double ms = 0.0;
    double bytes_per_iter = 0.0;
  };
  struct Point {
    int threads = 0;
    Arm fused;
    Arm two_pass;
    bool identical = true;
    perf::Delta fused_counters;  ///< calling-thread counters, timed frames
    int fused_counter_frames = 0;
    double fused_ops_per_frame = 0.0;    ///< analytic, one segment() call
    double fused_bytes_per_frame = 0.0;
  };
  std::vector<Point> points;
  std::cout << "perf: " << perf::status() << '\n';

  const double n = static_cast<double>(width) * height;
  const double expected_saving = n * (MemTraffic::kLabBytes + MemTraffic::kLabelBytes);

  Table table("ms/frame and modelled DRAM bytes/iteration");
  table.set_header({"threads", "fused ms", "two-pass ms", "speedup",
                    "fused B/iter", "two-pass B/iter", "identical"});
  for (int threads = 1; threads <= hw_threads; ++threads) {
    ThreadPool::set_global_threads(threads);
    Point point;
    point.threads = threads;
    Segmentation fused_result, two_pass_result;
    IterationScratch scratch;
    // The two arms are timed interleaved (fused, two-pass, fused, ...) so
    // frequency drift and scheduler noise on the host hit both equally;
    // per-arm medians are reported.
    std::vector<double> fused_times, two_pass_times;
    Instrumentation fused_instr, two_pass_instr;
    for (int f = -1; f < frames; ++f) {  // f == -1 warms both arms, untimed
      for (const bool fused : {true, false}) {
        FusionGuard guard(fused);
        Segmentation& result = fused ? fused_result : two_pass_result;
        Instrumentation& instr = fused ? fused_instr : two_pass_instr;
        perf::Delta frame_counters;
        Stopwatch watch;
        {
          // Counters are per-thread; this samples the calling thread, which
          // executes its share of every parallel region alongside the pool.
          perf::ScopedSample sample(&frame_counters);
          slic.segment_lab_into(lab, result, scratch, {}, &instr);
        }
        if (f >= 0) {
          (fused ? fused_times : two_pass_times).push_back(watch.elapsed_ms());
          if (fused && frame_counters.has(perf::Event::kCycles)) {
            point.fused_counters += frame_counters;
            point.fused_counter_frames += 1;
          }
        }
      }
    }
    point.fused.ms = median(std::move(fused_times));
    point.fused.bytes_per_iter = fused_instr.traffic_bytes_per_iteration();
    point.fused_ops_per_frame = static_cast<double>(fused_instr.ops.total_ops());
    point.fused_bytes_per_frame =
        static_cast<double>(fused_instr.traffic.total());
    point.two_pass.ms = median(std::move(two_pass_times));
    point.two_pass.bytes_per_iter = two_pass_instr.traffic_bytes_per_iteration();
    point.identical =
        std::equal(fused_result.labels.pixels().begin(),
                   fused_result.labels.pixels().end(),
                   two_pass_result.labels.pixels().begin()) &&
        std::memcmp(fused_result.centers.data(), two_pass_result.centers.data(),
                    fused_result.centers.size() * sizeof(ClusterCenter)) == 0;
    points.push_back(point);
    table.add_row({std::to_string(threads), Table::num(point.fused.ms, 1),
                   Table::num(point.two_pass.ms, 1),
                   Table::num(point.two_pass.ms / point.fused.ms, 2) + "x",
                   Table::si(point.fused.bytes_per_iter, 1) + "B",
                   Table::si(point.two_pass.bytes_per_iter, 1) + "B",
                   point.identical ? "yes" : "NO (bug!)"});
  }
  table.add_note("traffic uses the software-prototype DRAM convention of "
                 "slic/instrumentation.h; fusion removes the update pass's "
                 "image+label re-read, n*(12+4) = " +
                 Table::si(expected_saving, 1) + "B per iteration.");
  table.add_note("paper Table 2 context (1080p, two-pass accounting): "
                 "318MB/iter classic CPA, 100MB/iter PPA.");
  std::cout << table;

  const Point& last = points.back();
  const double win =
      100.0 * (1.0 - last.fused.ms / std::max(1e-9, last.two_pass.ms));
  const double saved = last.two_pass.bytes_per_iter - last.fused.bytes_per_iter;
  std::cout << "\nat " << last.threads << " thread(s): fused is "
            << Table::num(win, 1) << "% faster per frame and saves "
            << Table::si(saved, 1) << "B modelled DRAM per iteration (expected "
            << Table::si(expected_saving, 1) << "B)\n";

  // Per-frame roofline at the max-thread point: the analytic op/byte counts
  // of the last fused run against its median wall time, with calling-thread
  // counter measurements alongside when the perf backend is live.
  perf::Delta per_frame_counters;
  if (last.fused_counter_frames > 0) {
    per_frame_counters = last.fused_counters;
    for (auto& v : per_frame_counters.value)
      v /= static_cast<double>(last.fused_counter_frames);
  }
  const double analytic_ops = last.fused_ops_per_frame;
  const double analytic_bytes = last.fused_bytes_per_frame;
  if (per_frame_counters.has(perf::Event::kCycles)) {
    std::cout << "roofline (fused, per frame): "
              << Table::num(analytic_ops / std::max(1.0, analytic_bytes), 2)
              << " ops/B analytic intensity, IPC "
              << Table::num(per_frame_counters.ipc(), 2);
    if (per_frame_counters.has(perf::Event::kLlcMisses))
      std::cout << ", measured DRAM "
                << Table::si(per_frame_counters.dram_bytes(), 1) << "B vs "
                << Table::si(analytic_bytes, 1) << "B analytic";
    std::cout << '\n';
  }

  bench::GateMetrics gate;
  // Wall-clock metrics get a wide tolerance (shared CI runners); the
  // analytic traffic model is deterministic, so it gates tightly.
  gate.lower_is_better("fused_ms_per_frame", last.fused.ms, "ms", 0.15)
      .higher_is_better("fused_vs_two_pass_speedup",
                        last.two_pass.ms / last.fused.ms, "x", 0.15)
      .lower_is_better("fused_bytes_per_iteration", last.fused.bytes_per_iter,
                       "bytes", 0.01)
      .lower_is_better("two_pass_bytes_per_iteration",
                       last.two_pass.bytes_per_iter, "bytes", 0.01);

  bench::Json sweep = bench::Json::array();
  for (const Point& p : points) {
    sweep.push(bench::Json::object()
                   .set("threads", p.threads)
                   .set("fused_ms", p.fused.ms)
                   .set("two_pass_ms", p.two_pass.ms)
                   .set("speedup", p.two_pass.ms / p.fused.ms)
                   .set("fused_bytes_per_iteration", p.fused.bytes_per_iter)
                   .set("two_pass_bytes_per_iteration", p.two_pass.bytes_per_iter)
                   .set("labels_and_centers_identical", p.identical));
  }
  bench::Json::object()
      .set("bench", "fused_iteration")
      .set("config", bench::Json::object()
                         .set("width", width)
                         .set("height", height)
                         .set("superpixels", superpixels)
                         .set("ratio", ratio)
                         .set("frames", frames))
      .set("expected_bytes_saved_per_iteration", expected_saving)
      .set("paper_table2_mb_per_iteration",
           bench::Json::object().set("cpa_two_pass", 318).set("ppa", 100))
      .set("sweep", std::move(sweep))
      .set("roofline",
           bench::roofline_json(analytic_ops, analytic_bytes, last.fused.ms,
                                per_frame_counters))
      .set("perf_status", perf::status())
      .set("gate", gate.json())
      .set("machine", bench::machine_json())
      .write_file("BENCH_fused_iteration.json");
  return 0;
}
