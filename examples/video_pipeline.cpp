// Video pipeline: the paper's motivating use case — real-time superpixel
// segmentation of a camera stream on a mobile device.
//
// Synthesizes a short "video" (a slowly evolving synthetic scene), runs the
// bit-exact accelerator golden model on every frame, measures software
// throughput and temporal label stability, and projects the frame rate and
// energy the 16nm accelerator would achieve on the same stream using the
// calibrated performance model.
//
// Both software paths run through the multi-stream engine
// (engine/engine.h) as single-stream clients: the warm-started pipeline is
// a PPA stream with temporal warm starts, and the batch mode feeds a cold
// CPA stream through a depth-2 admission queue so frame N+1's admission
// (pixel copy) overlaps frame N's segmentation (the labels are identical
// either way — the engine's byte-identity contract).
//
// Soak monitoring (long-run observability): `--monitor=out.jsonl` appends
// one JSON line every `--monitor-every=N` frames (default 20) with latency
// percentiles, cumulative fps, heap-allocation deltas, and thread-pool stats —
// point a dashboard or a validation script at the file while a long run is
// in flight. `--prom=out.prom` additionally rewrites a Prometheus
// text-exposition dump of the full metrics registry at every snapshot (the
// node-exporter textfile-collector pattern).
//
// Live introspection: `--ops-port=N` (or SSLIC_OPS_PORT) serves /metrics,
// /healthz, /varz, /statusz, /tracez, /framez over HTTP on 127.0.0.1 for
// the life of the run (port 0 picks an ephemeral port, printed at startup);
// `--crash-dump=path` (or SSLIC_CRASH_DUMP) arms a fatal-signal handler
// that dumps the flight recorder and final registry state as JSON.
//
//   video_pipeline [--frames=10] [--width=640 --height=480]
//                  [--superpixels=1200] [--ratio=0.5] [--threads=N]
//                  [--trace=out.json] [--metrics=out.json] [--no-fuse]
//                  [--monitor=out.jsonl] [--monitor-every=20]
//                  [--prom=out.prom] [--tile=WxH|auto]
//                  [--ops-port=N] [--ops-deadline-s=30]
//                  [--crash-dump=crash.json]
//
// `--tile` (or SSLIC_TILE) additionally runs frame 0 through the
// out-of-core tiled driver before the pipeline loop and verifies its
// labels and centers are byte-identical to the monolithic cold-start
// segmentation — the DESIGN.md §4h identity contract, checked in situ.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <algorithm>

#include <cstring>

#include "color/color_convert.h"
#include "common/alloc_counter.h"
#include "common/cli.h"
#include "common/flight_recorder.h"
#include "common/frame_log.h"
#include "common/logging.h"
#include "common/ops_server.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "dataset/synthetic.h"
#include "engine/engine.h"
#include "hw/accelerator_model.h"
#include "image/draw.h"
#include "image/io.h"
#include "metrics/segmentation_metrics.h"
#include "slic/fusion.h"
#include "slic/hw_datapath.h"
#include "slic/slic_baseline.h"
#include "slic/subsampled.h"
#include "slic/telemetry_bridge.h"
#include "slic/tiled.h"

// Count every heap allocation so the summary can prove the warm-started
// pipeline's steady state (frame 2 onward) allocates nothing per frame.
SSLIC_INSTALL_COUNTING_ALLOCATOR();

namespace {

using namespace sslic;

/// Temporal-stability proxy that is invariant to label renumbering: the
/// fraction of 4-neighbour pixel pairs whose co-membership ("same
/// superpixel?") agrees between the two frames (a local Rand index).
double label_agreement(const LabelImage& a, const LabelImage& b) {
  std::size_t agree = 0;
  std::size_t total = 0;
  for (int y = 0; y < a.height(); ++y) {
    for (int x = 0; x < a.width(); ++x) {
      if (x + 1 < a.width()) {
        agree += (a(x, y) == a(x + 1, y)) == (b(x, y) == b(x + 1, y));
        ++total;
      }
      if (y + 1 < a.height()) {
        agree += (a(x, y) == a(x, y + 1)) == (b(x, y) == b(x, y + 1));
        ++total;
      }
    }
  }
  return static_cast<double>(agree) / static_cast<double>(total);
}

/// A JSON number, or null for NaN/inf (JSON has no NaN literal).
std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream s;
  s.precision(10);
  s << v;
  return s.str();
}

/// Appends periodic JSONL snapshots of a long run, and optionally rewrites
/// a Prometheus text dump of the registry alongside (scrape-file pattern).
class SoakMonitor {
 public:
  SoakMonitor(const std::string& jsonl_path, const std::string& prom_path)
      : prom_path_(prom_path) {
    if (!jsonl_path.empty())
      jsonl_.open(jsonl_path, std::ios::out | std::ios::app);
    jsonl_path_ = jsonl_path;
  }

  [[nodiscard]] bool active() const {
    return jsonl_.is_open() || !prom_path_.empty();
  }
  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] const std::string& jsonl_path() const { return jsonl_path_; }

  /// One snapshot after `frames_done` frames. `window_allocs` holds the
  /// warm pipeline's heap allocations since the previous snapshot (must be
  /// 0 once steady); `steady` whether the window lies entirely in the warm
  /// steady state (frame 2 onward). `stream_id` tags the snapshot with its engine
  /// stream (additive field; this pipeline drives stream 0) so multi-stream
  /// soak tooling can split per stream.
  void snapshot(int frames_done, int stream_id, double elapsed_s,
                const telemetry::Histogram& golden,
                const telemetry::Histogram& warm, double golden_total_ms,
                double warm_total_ms, std::uint64_t window_allocs,
                bool steady) {
    if (jsonl_.is_open()) {
      const ThreadPool& pool = ThreadPool::global();
      std::uint64_t busy_ns = 0;
      for (const ThreadPool::WorkerStats& w : pool.stats())
        busy_ns += w.busy_ns;
      std::ostringstream line;
      line << "{\"frame\": " << frames_done
           << ", \"stream\": " << stream_id
           << ", \"elapsed_s\": " << jnum(elapsed_s)
           << ", \"golden_ms\": {\"p50\": " << jnum(golden.p50())
           << ", \"p95\": " << jnum(golden.p95())
           << ", \"p99\": " << jnum(golden.p99())
           << ", \"mean\": " << jnum(golden.mean()) << "}"
           << ", \"warm_ms\": {\"p50\": " << jnum(warm.p50())
           << ", \"p95\": " << jnum(warm.p95())
           << ", \"p99\": " << jnum(warm.p99()) << "}"
           << ", \"golden_fps\": "
           << jnum(1000.0 * frames_done / golden_total_ms)
           << ", \"warm_fps\": " << jnum(1000.0 * frames_done / warm_total_ms)
           << ", \"heap_allocs_total\": " << alloc_counter::allocations()
           << ", \"warm_heap_allocs_window\": " << window_allocs
           << ", \"steady_state\": " << (steady ? "true" : "false")
           << ", \"pool_threads\": " << pool.threads()
           << ", \"pool_jobs_run\": " << pool.jobs_run()
           << ", \"pool_busy_ms\": " << jnum(static_cast<double>(busy_ns) / 1e6)
           // Wide-event flow check (additive key): soak tooling asserting
           // per-frame causal records exist can watch this count climb
           // without scraping /framez.
           << ", \"framez_recorded\": " << ops::frame_events_recorded()
           << "}";
      jsonl_ << line.str() << '\n' << std::flush;
      if (!jsonl_) failed_ = true;
    }
    if (!prom_path_.empty()) {
      // Refresh the registry-backed exports, then rewrite the whole dump.
      // Write-temp-then-rename(): truncating the scrape file in place would
      // let a concurrent scraper read a partial exposition; rename() swaps
      // the complete file in atomically (same directory, same filesystem).
      telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
      telemetry::export_thread_pool(ThreadPool::global(), registry);
      telemetry::export_allocations(registry);
      const std::string tmp_path = prom_path_ + ".tmp";
      bool written = false;
      {
        std::ofstream prom(tmp_path, std::ios::out | std::ios::trunc);
        prom << registry.export_prometheus();
        written = static_cast<bool>(prom);
      }
      if (!written || std::rename(tmp_path.c_str(), prom_path_.c_str()) != 0)
        failed_ = true;
    }
  }

 private:
  std::ofstream jsonl_;
  std::string jsonl_path_;
  std::string prom_path_;
  bool failed_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int frames = args.get_int("frames", 10);
  const int width = args.get_int("width", 640);
  const int height = args.get_int("height", 480);
  const int superpixels = args.get_int("superpixels", 1200);
  const double ratio = args.get_double("ratio", 0.5);
  ThreadPool::set_global_threads(args.get_int("threads", 0));
  const std::string simd_request = args.get_string("simd", "");
  if (!simd_request.empty() && !sslic::simd::set_preferred_isa(simd_request)) {
    std::cerr << "unknown --simd value '" << simd_request
              << "' (expected scalar|sse2|avx2|avx512|neon)\n";
    return 2;
  }
  if (args.has("no-fuse")) set_fusion(false);
  // --tile beats SSLIC_TILE; a bad flag value warns once and is ignored
  // (tile_config_from_env applies the same policy to a bad env value).
  TiledConfig tile_config;
  bool tiled_requested = false;
  const std::string tile_flag = args.get_string("tile", "");
  if (!tile_flag.empty()) {
    if (parse_tile_spec(tile_flag, &tile_config.tile_width,
                        &tile_config.tile_height)) {
      tiled_requested = true;
    } else {
      SSLIC_WARN("unparsable --tile value \"" << tile_flag
                 << "\"; expected WxH (e.g. 512x256) or auto — ignoring");
    }
  } else {
    tiled_requested = tile_config_from_env(&tile_config);
  }
  const std::string trace_path = args.get_string("trace", "");
  const std::string metrics_path = args.get_string("metrics", "");
  const std::string monitor_path = args.get_string("monitor", "");
  const int monitor_every = std::max(1, args.get_int("monitor-every", 20));
  const std::string prom_path = args.get_string("prom", "");

  // Live ops plane: `--ops-port=N` (or SSLIC_OPS_PORT) serves /metrics,
  // /healthz, /varz, /statusz, /tracez on 127.0.0.1 while the pipeline
  // runs; `--crash-dump=path` (or SSLIC_CRASH_DUMP) arms the flight
  // recorder's fatal-signal JSON report.
  telemetry::register_slic_statusz();
  const double ops_deadline_s = args.get_double("ops-deadline-s", 30.0);
  ops::OpsServer ops_server;
  if (args.has("ops-port")) {
    if (!ops::compiled()) {
      std::cerr << "warning: --ops-port requested but this binary was built "
                   "with -DSSLIC_OPS=OFF; no server will be started\n";
    } else {
      ops::OpsServer::Options ops_options;
      ops_options.port = args.get_int("ops-port", 0);
      ops_options.healthz_deadline_s = ops_deadline_s;
      if (!ops_server.start(ops_options)) {
        std::cerr << "failed to start the ops server on port "
                  << ops_options.port << '\n';
        return 2;
      }
      std::cout << "ops server: http://127.0.0.1:" << ops_server.port()
                << " (/metrics /healthz /varz /statusz /tracez /framez)\n";
    }
  } else {
    ops::start_global_from_env(ops_deadline_s);
  }
  const std::string crash_dump_path = args.get_string("crash-dump", "");
  if (!crash_dump_path.empty() && !ops::install_crash_handler(crash_dump_path)) {
    std::cerr << "warning: --crash-dump requested but the crash handler "
                 "could not be installed (built with -DSSLIC_OPS=OFF?)\n";
  }

  SoakMonitor monitor(monitor_path, prom_path);
  if (monitor.active())
    std::cout << "soak monitor: snapshot every " << monitor_every
              << " frames\n";
  if (!trace_path.empty()) {
    if (trace::compiled()) {
      trace::arm(trace_path);
    } else {
      std::cerr << "warning: --trace requested but this binary was built with "
                   "-DSSLIC_TRACING=OFF; no spans will be recorded\n";
    }
  }

  std::cout << "segmenting a synthetic " << width << 'x' << height << " stream, "
            << frames << " frames, K=" << superpixels << ", S-SLIC(" << ratio
            << ") golden model, " << ThreadPool::global().threads()
            << " thread(s), simd=" << sslic::simd::isa_name(sslic::simd::preferred_isa())
            << ", fused iteration " << (fusion_enabled() ? "on" : "off")
            << "\n\n";

  HwConfig config;
  config.num_superpixels = superpixels;
  config.subsample_ratio = ratio;
  config.iterations = 9;
  const HwSlic segmenter(config);

  SyntheticParams scene;
  scene.width = width;
  scene.height = height;

  // Warm-started software pipeline (temporal extension): frame t's centers
  // initialize frame t+1, cutting the iteration budget roughly in half.
  // Served by the multi-stream engine as a single PPA stream with temporal
  // warm starts — byte-identical to a standalone TemporalSlic run.
  SlicParams temporal_params;
  temporal_params.num_superpixels = superpixels;
  temporal_params.subsample_ratio = ratio;
  temporal_params.max_iterations = 18;

  // Pre-generate the stream so the timed loops below measure segmentation,
  // not synthesis. A slowly evolving scene: the layout (seed) changes every
  // few frames (a "cut"); between cuts each frame gets fresh sensor noise
  // and a drifting exposure, like consecutive camera frames.
  std::vector<RgbImage> stream;
  std::vector<LabelImage> stream_truth;
  stream.reserve(static_cast<std::size_t>(frames));
  stream_truth.reserve(static_cast<std::size_t>(frames));
  Rng jitter_rng(77);
  for (int f = 0; f < frames; ++f) {
    GroundTruthImage gt =
        generate_synthetic(scene, 9000 + static_cast<std::uint64_t>(f / 4));
    const double exposure = 1.0 + 0.04 * std::sin(0.9 * f);
    for (auto& px : gt.image.pixels()) {
      const auto jitter = [&](std::uint8_t v) {
        const double noisy = v * exposure + 2.0 * jitter_rng.next_gaussian();
        return static_cast<std::uint8_t>(std::clamp(noisy, 0.0, 255.0));
      };
      px = {jitter(px.r), jitter(px.g), jitter(px.b)};
    }
    stream.push_back(std::move(gt.image));
    stream_truth.push_back(std::move(gt.truth));
  }

  // Out-of-core cross-check: run frame 0 through the tiled driver and
  // require byte-identity against the monolithic cold-start segmentation
  // before trusting the pipeline numbers.
  if (tiled_requested && !stream.empty()) {
    tile_config.force_tiled = true;
    tile_config.spill_to_disk = true;
    const LabImage lab0 = srgb_to_lab(stream.front());
    TiledStats tile_stats;
    const Segmentation tiled =
        TiledSegmenter(Algorithm::kSslicPpa, temporal_params, tile_config)
            .segment_lab(lab0, nullptr, &tile_stats);
    const Segmentation mono = PpaSlic(temporal_params).segment_lab(lab0);
    const bool identical =
        tiled.labels == mono.labels &&
        tiled.centers.size() == mono.centers.size() &&
        std::memcmp(tiled.centers.data(), mono.centers.data(),
                    tiled.centers.size() * sizeof(ClusterCenter)) == 0;
    std::cout << "tiled cross-check (frame 0): " << tile_stats.tiles_x << 'x'
              << tile_stats.tiles_y << " tiles, " << tile_stats.halo_bytes
              << " halo bytes, peak RSS " << (tile_stats.peak_rss >> 20)
              << " MiB — labels+centers "
              << (identical ? "byte-identical" : "DIVERGED") << "\n\n";
    if (!identical) {
      std::cerr << "tiled driver diverged from the monolithic path\n";
      return 3;
    }
  }

  Table table("Per-frame results (golden model + warm-started software)");
  table.set_header({"frame", "sw ms", "superpixels", "ASA", "recall",
                    "stability vs prev", "warm ms", "warm ASA"});
  // Per-frame latencies also feed the telemetry registry so the exit summary
  // can report p50/p95/p99 — the tail, not just the mean, is what decides
  // whether a mobile vision pipeline holds its frame deadline.
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
  telemetry::Histogram& frame_hist = registry.histogram("sslic.video.frame_ms");
  telemetry::Histogram& warm_hist =
      registry.histogram("sslic.video.warm_frame_ms");

  // The engine and its warm stream open after the stream pre-generation
  // phase, so /healthz stays in its pre-first-heartbeat state until frames
  // actually flow (the engine's own heartbeat is off: this pipeline beats
  // once per frame and owns the liveness signal).
  engine::EngineOptions warm_engine_options;
  warm_engine_options.heartbeat = false;
  engine::StreamEngine warm_engine(warm_engine_options);
  engine::StreamOptions warm_stream_options;
  warm_stream_options.params = temporal_params;
  const engine::StreamId warm_stream =
      warm_engine.open_stream(warm_stream_options);

  LabelImage previous;
  double total_ms = 0.0;
  double warm_total_ms = 0.0;
  // Heap allocations per warm frame, counted tightly around the engine
  // submit+wait cycle (the counter is global, so the scheduler and pool
  // threads are covered too). Frame 0 is cold (buffers grow); from frame 2
  // on the count must be 0.
  std::vector<std::uint64_t> warm_allocs;
  warm_allocs.reserve(static_cast<std::size_t>(frames));
  // Soak-window state: allocation delta and steadiness of the frames since
  // the previous snapshot.
  Stopwatch soak_watch;
  std::uint64_t soak_window_warm_allocs = 0;
  int soak_window_first_frame = 0;
  for (int f = 0; f < frames; ++f) {
    // Per-frame context for the golden-model leg: the "frame" span and the
    // frame_hist exemplar below share this id, so a /metrics p99 outlier
    // resolves to its /tracez timeline. (The engine legs mint their own ids
    // at submit(); FrameScope nests and restores.)
    const trace::FrameScope frame_ctx(trace::mint_trace_id());
    SSLIC_TRACE_SCOPE("frame", f);
    ops::heartbeat();  // /healthz watchdog: one beat per frame
    const auto fi = static_cast<std::size_t>(f);
    Stopwatch watch;
    double ms = 0.0;
    Segmentation seg;
    double warm_ms = 0.0;
    const Segmentation* warm_ptr = nullptr;
    {
      SSLIC_TRACE_SCOPE("frame.golden", f);
      seg = segmenter.segment(stream[fi]);
      ms = watch.elapsed_ms();
    }
    Stopwatch warm_watch;
    {
      SSLIC_TRACE_SCOPE("frame.warm", f);
      const std::uint64_t allocs_before = alloc_counter::allocations();
      const engine::SubmitResult submitted =
          warm_engine.submit(warm_stream, stream[fi]);
      warm_engine.wait(submitted.ticket);
      warm_ptr = warm_engine.last_result(warm_stream);
      warm_allocs.push_back(alloc_counter::allocations() - allocs_before);
      warm_ms = warm_watch.elapsed_ms();
    }
    total_ms += ms;
    frame_hist.record(ms);
    const Segmentation& warm = *warm_ptr;
    warm_total_ms += warm_ms;
    warm_hist.record(warm_ms);
    soak_window_warm_allocs += warm_allocs.back();

    if (monitor.active() &&
        ((f + 1) % monitor_every == 0 || f == frames - 1)) {
      monitor.snapshot(f + 1, /*stream_id=*/0, soak_watch.elapsed_ms() / 1e3,
                       frame_hist, warm_hist, total_ms, warm_total_ms,
                       soak_window_warm_allocs,
                       /*steady=*/soak_window_first_frame >= 2);
      soak_window_warm_allocs = 0;
      soak_window_first_frame = f + 1;
    }

    table.add_row(
        {std::to_string(f), Table::num(ms, 1),
         std::to_string(count_labels(seg.labels)),
         Table::num(achievable_segmentation_accuracy(seg.labels, stream_truth[fi]), 3),
         Table::num(boundary_recall(seg.labels, stream_truth[fi], 2), 3),
         previous.empty() ? "-" : Table::num(label_agreement(seg.labels, previous), 3),
         Table::num(warm_ms, 1),
         Table::num(achievable_segmentation_accuracy(warm.labels, stream_truth[fi]), 3)});
    previous = seg.labels;
    if (f == 0) {
      write_ppm("video_frame0_boundaries.ppm",
                overlay_boundaries(stream[fi], seg.labels));
    }
  }
  std::cout << table;
  std::cout << "\nsoftware golden model: "
            << Table::num(1000.0 * frames / total_ms, 1)
            << " fps on this CPU; warm-started software pipeline: "
            << Table::num(1000.0 * frames / warm_total_ms, 1) << " fps\n";

  // Steady-state allocation report: all per-frame buffers (admission slot,
  // Lab conversion, labels, sigmas, connectivity scratch) live in the
  // engine's per-stream state and are reused, so frames 2..N must not
  // touch the heap at all.
  if (warm_allocs.size() > 2) {
    std::uint64_t steady = 0;
    for (std::size_t f = 2; f < warm_allocs.size(); ++f) steady += warm_allocs[f];
    std::cout << "warm pipeline heap allocations: frame 0 (cold) "
              << warm_allocs[0] << ", frames 2.." << warm_allocs.size() - 1
              << " total " << steady
              << (steady == 0 ? " (zero-allocation steady state)\n"
                              : " (expected 0 — buffer reuse regressed!)\n");
  }

  // --- Batch mode: engine-pipelined cold CPA stream. ---
  // The same frames through a cold CPA engine stream with a depth-2
  // admission queue: frame N+1's admission (pixel copy on this thread)
  // overlaps frame N's segmentation on the engine side, and completion
  // callbacks collect the results in submission order. Labels are
  // identical to the sequential path — only the schedule changes (the
  // engine's byte-identity contract; the bespoke prefetch-thread pipeline
  // this replaces lives on in `git log`).
  {
    SlicParams sw_params;
    sw_params.num_superpixels = superpixels;
    sw_params.subsample_ratio = ratio;
    sw_params.max_iterations = 9;
    const CpaSlic sw(sw_params);

    // The conversion buffer, segmentation output, and iteration scratch are
    // hoisted out of the loop: after the first frame every buffer is
    // already right-sized and the loop runs allocation-free.
    Stopwatch sequential_watch;
    std::vector<int> sequential_label_counts;
    LabImage lab;
    Segmentation seg;
    IterationScratch scratch;
    for (const RgbImage& frame : stream) {
      SSLIC_TRACE_SCOPE("frame.batch_sequential");
      srgb_to_lab(frame, lab);
      sw.segment_lab_into(lab, seg, scratch);
      sequential_label_counts.push_back(count_labels(seg.labels));
    }
    const double sequential_ms = sequential_watch.elapsed_ms();

    std::vector<int> pipelined_label_counts;
    engine::EngineOptions batch_engine_options;
    batch_engine_options.heartbeat = false;
    engine::StreamEngine batch_engine(batch_engine_options);
    engine::StreamOptions batch_stream_options;
    batch_stream_options.params = sw_params;
    batch_stream_options.algorithm = engine::StreamAlgorithm::kCpa;
    batch_stream_options.temporal_warm = false;
    batch_stream_options.queue_limit = 2;
    batch_stream_options.policy = engine::AdmissionPolicy::kBlock;
    batch_stream_options.on_complete = [&](const engine::FrameResult& done) {
      pipelined_label_counts.push_back(
          count_labels(done.segmentation->labels));
    };
    const engine::StreamId batch_stream =
        batch_engine.open_stream(batch_stream_options);

    Stopwatch pipeline_watch;
    for (std::size_t f = 0; f < stream.size(); ++f) {
      SSLIC_TRACE_SCOPE("frame.batch_pipelined",
                        static_cast<std::int64_t>(f));
      batch_engine.submit(batch_stream, stream[f]);  // blocks when full
    }
    batch_engine.drain();
    const double pipeline_ms = pipeline_watch.elapsed_ms();

    std::cout << "\nbatch software pipeline (CPA S-SLIC(" << ratio << "), "
              << ThreadPool::global().threads() << " thread(s)):\n"
              << "  sequential convert+cluster: "
              << Table::num(1000.0 * frames / sequential_ms, 1) << " fps ("
              << Table::num(sequential_ms / frames, 1) << " ms/frame)\n"
              << "  engine-pipelined stream:    "
              << Table::num(1000.0 * frames / pipeline_ms, 1) << " fps ("
              << Table::num(pipeline_ms / frames, 1) << " ms/frame), results "
              << (pipelined_label_counts == sequential_label_counts
                      ? "identical"
                      : "DIFFER (bug!)")
              << '\n';
  }

  // Accelerator projection for this stream.
  hw::AcceleratorDesign design;
  design.width = width;
  design.height = height;
  design.num_superpixels = superpixels;
  design.subsample_ratio = ratio;
  design.channel_buffer_bytes = width * height >= 1920 * 1080 ? 4096 : 1024;
  const hw::FrameReport r = hw::AcceleratorModel(design).evaluate();
  std::cout << "16nm S-SLIC accelerator projection for this stream:\n"
            << "  " << Table::num(r.fps, 1) << " fps ("
            << Table::num(r.total_s * 1e3, 1) << " ms/frame), "
            << Table::num(r.average_power_w * 1e3, 1) << " mW, "
            << Table::num(r.energy_per_frame_j * 1e3, 2) << " mJ/frame, "
            << Table::num(r.area_mm2, 3) << " mm2\n"
            << "  real-time (30 fps): " << (r.real_time() ? "yes" : "no")
            << "; wrote video_frame0_boundaries.ppm\n";

  // --- Telemetry summary: tail latency, pool utilisation, allocations. ---
  telemetry::export_thread_pool(ThreadPool::global(), registry);
  telemetry::export_allocations(registry);
  std::cout << "\nframe latency (golden model, " << frame_hist.count()
            << " frames): p50 " << Table::num(frame_hist.p50(), 1) << " ms, p95 "
            << Table::num(frame_hist.p95(), 1) << " ms, p99 "
            << Table::num(frame_hist.p99(), 1) << " ms, mean "
            << Table::num(frame_hist.mean(), 1) << " ms ("
            << Table::num(1000.0 / frame_hist.mean(), 1) << " fps)\n"
            << "frame latency (warm software): p50 "
            << Table::num(warm_hist.p50(), 1) << " ms, p95 "
            << Table::num(warm_hist.p95(), 1) << " ms, p99 "
            << Table::num(warm_hist.p99(), 1) << " ms\n";
  if (!metrics_path.empty()) {
    telemetry::JsonSink sink;
    registry.flush_to(sink);
    std::ofstream out(metrics_path);
    out << sink.text() << '\n';
    if (out) {
      std::cout << "wrote metrics to " << metrics_path << '\n';
    } else {
      std::cerr << "failed to write metrics to " << metrics_path << '\n';
      return 1;
    }
  }
  if (!trace_path.empty() && trace::compiled()) {
    std::cout << "tracing armed; will write " << trace_path << " at exit ("
              << trace::dropped_events() << " events dropped so far)\n";
  }
  if (monitor.active()) {
    if (!monitor.ok()) {
      std::cerr << "soak monitor: write failure on " << monitor.jsonl_path()
                << " or the --prom file\n";
      return 1;
    }
    if (!monitor.jsonl_path().empty())
      std::cout << "soak monitor: appended snapshots to "
                << monitor.jsonl_path() << '\n';
  }
  return 0;
}
