// Thread-scaling sweep for the multithreaded software path.
//
// Runs the CPA S-SLIC software segmenter on a 1080p synthetic frame at
// thread counts {1, 2, 4, 8, hardware_concurrency} and reports ms/frame
// plus speedup over the serial run. Sweep points that oversubscribe the
// machine (threads > hardware threads) are skipped by default — timing an
// 8-thread run on a 2-core box produces numbers that look like scaling data
// but measure scheduler thrash; pass --oversubscribe=1 to keep them.
//
// Each frame is timed end to end (color conversion included) with the
// per-stage breakdown its Instrumentation record carries — convert /
// assign (distance+min) / update / connectivity / other (initialization) —
// so regressions can be attributed to a stage. Labels are
// cross-checked against the serial result at every thread count — the
// determinism contract says they must be bit-identical (see DESIGN.md
// "Parallel execution").
//
// Emits BENCH_thread_scaling.json with the sweep, per-stage medians, and
// machine metadata (CPU model, hardware threads, SIMD ISA) so CI or
// plotting scripts can consume the numbers directly. Unmeasurable sweep
// points are still emitted, as {"threads": N, "skipped": true,
// "skip_reason": ...} rows — the sweep array has the same shape on a
// 1-core container as on a 16-core workstation, so bench-gate baselines
// stay schema-stable across machines.
//
//   thread_scaling [--frames=5] [--superpixels=2000] [--ratio=0.5]
//                  [--width=1920 --height=1080] [--oversubscribe=1]
//                  [--simd=scalar|sse2|avx2|avx512|neon]
#include <algorithm>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "color/color_convert.h"
#include "common/thread_pool.h"
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
  const double ratio = args.get_double("ratio", 0.5);
  const bool oversubscribe = args.get_bool("oversubscribe", false);
  const std::string simd_request = args.get_string("simd", "");
  if (!simd_request.empty() && !simd::set_preferred_isa(simd_request)) {
    std::cerr << "unknown --simd value '" << simd_request << "'\n";
    return 2;
  }

  const int hw_threads = ThreadPool::default_threads();
  std::set<int> sweep = {1, 2, 4, 8};
  sweep.insert(hw_threads);
  std::vector<int> skipped;
  if (!oversubscribe) {
    for (auto it = sweep.begin(); it != sweep.end();) {
      if (*it > hw_threads) {
        skipped.push_back(*it);
        it = sweep.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::cout << "==================================================================\n"
            << "Thread scaling — CPA S-SLIC(" << ratio << ") software path\n"
            << "workload: " << width << 'x' << height << ", K=" << superpixels
            << ", " << frames << " timed frames per point (median reported)\n"
            << "machine: " << hw_threads << " hardware thread(s), "
            << bench::cpu_model_name() << '\n'
            << "simd: " << simd::isa_name(kernels::active_isa()) << '\n'
            << "==================================================================\n";
  for (const int threads : skipped) {
    std::cout << "skipping " << threads
              << "-thread point: oversubscribes the " << hw_threads
              << "-thread machine (--oversubscribe=1 to force)\n";
  }

  SyntheticParams scene;
  scene.width = width;
  scene.height = height;
  const GroundTruthImage gt = generate_synthetic(scene, 4242);

  SlicParams params;
  params.num_superpixels = superpixels;
  params.subsample_ratio = ratio;
  const CpaSlic slic(params);

  // Stage keys, in reporting order, and the Instrumentation stage time each
  // reads. "assign" is the distance+min stage the SIMD kernels accelerate;
  // "convert" is sRGB->Lab; "other" is initialization (seeding).
  const std::vector<std::pair<std::string, double Instrumentation::*>>
      stages = {
      {"convert", &Instrumentation::convert_ms},
      {"assign", &Instrumentation::assign_ms},
      {"update", &Instrumentation::update_ms},
      {"connectivity", &Instrumentation::connectivity_ms},
      {"other", &Instrumentation::init_ms}};

  struct Point {
    int threads = 0;
    double ms = 0.0;
    double speedup = 1.0;
    bool identical = true;
    std::map<std::string, double> stage_ms;  // median per stage
  };
  std::vector<Point> points;
  LabelImage serial_labels;

  for (const int threads : sweep) {
    ThreadPool::set_global_threads(threads);
    Point point;
    point.threads = ThreadPool::global().threads();

    std::vector<double> samples;
    std::map<std::string, std::vector<double>> stage_samples;
    Segmentation seg;
    for (int f = 0; f < frames; ++f) {
      Instrumentation instr;
      Stopwatch watch;
      seg = slic.segment(gt.image, {}, &instr);
      samples.push_back(watch.elapsed_ms());
      for (const auto& [key, stage] : stages)
        stage_samples[key].push_back(instr.*stage);
    }
    point.ms = median(samples);
    for (const auto& [key, stage] : stages)
      point.stage_ms[key] = median(stage_samples[key]);

    if (threads == 1)
      serial_labels = seg.labels;
    else
      point.identical = seg.labels.pixels() == serial_labels.pixels();
    points.push_back(point);
  }
  ThreadPool::set_global_threads(0);

  const double serial_ms = points.front().ms;
  Table table("1080p frame time vs thread count");
  table.set_header({"threads", "ms/frame", "fps", "speedup", "convert",
                    "assign", "update", "connectivity", "other",
                    "labels vs serial"});
  for (auto& point : points) {
    point.speedup = serial_ms / point.ms;
    table.add_row({std::to_string(point.threads), Table::num(point.ms, 1),
                   Table::num(1000.0 / point.ms, 1),
                   Table::num(point.speedup, 2) + "x",
                   Table::num(point.stage_ms.at("convert"), 1),
                   Table::num(point.stage_ms.at("assign"), 1),
                   Table::num(point.stage_ms.at("update"), 1),
                   Table::num(point.stage_ms.at("connectivity"), 1),
                   Table::num(point.stage_ms.at("other"), 1),
                   point.identical ? "identical" : "DIFFER (bug!)"});
  }
  std::cout << table;

  // Measured and skipped points interleave in ascending thread order so
  // the sweep array keeps one row per requested point on every machine.
  bench::Json sweep_json = bench::Json::array();
  {
    std::size_t next_point = 0;
    std::size_t next_skipped = 0;
    while (next_point < points.size() || next_skipped < skipped.size()) {
      const bool take_skipped =
          next_point == points.size() ||
          (next_skipped < skipped.size() &&
           skipped[next_skipped] < points[next_point].threads);
      if (take_skipped) {
        sweep_json.push(
            bench::Json::object()
                .set("threads", skipped[next_skipped])
                .set("skipped", true)
                .set("skip_reason",
                     "oversubscribes the " + std::to_string(hw_threads) +
                         "-thread machine (--oversubscribe=1 to force)"));
        ++next_skipped;
        continue;
      }
      const Point& point = points[next_point++];
      bench::Json stages_json = bench::Json::object();
      for (const auto& [key, stage] : stages)
        stages_json.set(key, point.stage_ms.at(key));
      sweep_json.push(bench::Json::object()
                          .set("threads", point.threads)
                          .set("skipped", false)
                          .set("ms_per_frame", point.ms)
                          .set("fps", 1000.0 / point.ms)
                          .set("speedup_vs_serial", point.speedup)
                          .set("stage_ms", std::move(stages_json))
                          .set("labels_identical_to_serial", point.identical));
    }
  }
  bench::Json skipped_json = bench::Json::array();
  for (const int threads : skipped) skipped_json.push(threads);
  bench::Json::object()
      .set("bench", "thread_scaling")
      .set("workload", bench::Json::object()
                           .set("width", width)
                           .set("height", height)
                           .set("superpixels", superpixels)
                           .set("subsample_ratio", ratio)
                           .set("timed_frames", frames))
      .set("hardware_threads", hw_threads)
      .set("machine", bench::machine_json())
      .set("oversubscribed_points_skipped", std::move(skipped_json))
      .set("sweep", std::move(sweep_json))
      .set("gate",
           bench::GateMetrics()
               .lower_is_better("serial_ms_per_frame", serial_ms, "ms", 0.25)
               .lower_is_better("max_threads_ms_per_frame", points.back().ms,
                                "ms", 0.25)
               .higher_is_better("max_threads_speedup", points.back().speedup,
                                 "x", 0.25)
               .json())
      .write_file("BENCH_thread_scaling.json");

  const bool all_identical =
      std::all_of(points.begin(), points.end(),
                  [](const Point& p) { return p.identical; });
  std::cout << "determinism: "
            << (all_identical ? "labels bit-identical at every thread count"
                              : "MISMATCH across thread counts")
            << '\n';
  return all_identical ? 0 : 1;
}
