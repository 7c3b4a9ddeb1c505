// Out-of-core tiled segmentation: bounded-memory streaming throughput
// (DESIGN.md §4h).
//
// Streams a procedurally generated Lab scene through TiledSegmenter's
// row-source entry — no image-sized buffer ever exists on the heap — with
// the planes spilled to an unlinked temporary file and finished row bands
// released, and reports:
//
//   - peak RSS (getrusage high-water mark) against the configured memory
//     budget: the headline bounded-memory claim,
//   - modelled DRAM bytes per iteration (deterministic, gated at ±1%) and
//     the halo-exchange traffic the tiling adds,
//   - wall-clock ms per megapixel of input.
//
// At CI sizes the image also fits in memory, so the run cross-checks the
// streamed labels byte-for-byte against the monolithic segmenter before
// any number is trusted (`--identity-check=0` skips it for large inputs;
// it auto-disables above 8 MP where the monolithic arm would defeat the
// point of streaming).
//
// `--ooc-check --rss-ceiling-mb=N` turns the bench into a hard gate for
// the out-of-core CI job: it exits nonzero unless the mapped planes exceed
// the ceiling (the input genuinely does not fit) while peak RSS stays
// under it. Example (a 1.07-gigapixel input in under 512 MiB):
//
//   tiled_streaming --width=32768 --height=32768 --superpixels=260000
//       --iterations=2 --ooc-check --rss-ceiling-mb=512
//
// Emits BENCH_tiled_streaming.json.
//
//   tiled_streaming [--width=1600 --height=1200] [--superpixels=1200]
//                   [--iterations=5] [--algorithm=cpa|ppa] [--ratio=1.0]
//                   [--tile=WxH|auto] [--budget-mb=512]
//                   [--identity-check=0|1] [--ooc-check]
//                   [--rss-ceiling-mb=512] [--ops-port=N]
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>

#include "bench_common.h"
#include "color/color_convert.h"
#include "common/flight_recorder.h"
#include "common/ops_server.h"
#include "slic/slic_baseline.h"
#include "slic/subsampled.h"
#include "slic/telemetry_bridge.h"
#include "slic/tiled.h"

namespace {

using namespace sslic;

/// Deterministic procedural scene: smooth large-scale color fields plus a
/// grid of soft blobs, so superpixels have real structure to lock onto and
/// every (x, y) is computable without materializing anything.
class ProceduralLabSource final : public LabRowSource {
 public:
  void fill_row(int y, float* L, float* a, float* b, int width) override {
    const double fy = static_cast<double>(y);
    const double sy = std::sin(fy * 0.0071);
    const double cy = std::cos(fy * 0.0113);
    const double blob_y = std::sin(fy * 0.0471);
    for (int x = 0; x < width; ++x) {
      const double fx = static_cast<double>(x);
      const double sx = std::sin(fx * 0.0059);
      const double blob = blob_y * std::sin(fx * 0.0437);
      L[x] = static_cast<float>(55.0 + 30.0 * sx * sy + 12.0 * blob);
      a[x] = static_cast<float>(40.0 * std::sin(fx * 0.0031 + fy * 0.0047) +
                                20.0 * blob);
      b[x] = static_cast<float>(35.0 * cy * std::cos(fx * 0.0041) -
                                15.0 * blob);
    }
  }
};

/// Order-independent label digest plus row count; enough to pin the output
/// without storing it.
class DigestSink final : public LabelRowSink {
 public:
  void write_row(int y, const std::int32_t* labels, int width) override {
    std::uint64_t h = std::uint64_t{1469598103934665603u};
    h ^= static_cast<std::uint32_t>(y);
    for (int x = 0; x < width; ++x) {
      h ^= static_cast<std::uint32_t>(labels[x]);
      h *= std::uint64_t{1099511628211u};
    }
    digest_ ^= h;
    rows_ += 1;
  }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  [[nodiscard]] int rows() const { return rows_; }

 private:
  std::uint64_t digest_ = 0;
  int rows_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int width = args.get_int("width", 1600);
  const int height = args.get_int("height", 1200);
  const int superpixels = args.get_int("superpixels", 1200);
  const int iterations = args.get_int("iterations", 5);
  const double ratio = args.get_double("ratio", 1.0);
  const std::string algorithm_name = args.get_string("algorithm", "cpa");
  const int budget_mb = args.get_int("budget-mb", 512);
  const bool ooc_check = args.has("ooc-check");
  const int rss_ceiling_mb = args.get_int("rss-ceiling-mb", 512);
  const double megapixels = static_cast<double>(width) * height / 1e6;
  const bool identity_check =
      args.get_int("identity-check", megapixels <= 8.0 ? 1 : 0) != 0;

  const Algorithm algorithm = algorithm_name == "ppa" ? Algorithm::kSslicPpa
                                                      : Algorithm::kSslicCpa;
  SlicParams params;
  params.num_superpixels = superpixels;
  params.subsample_ratio = ratio;
  params.max_iterations = iterations;

  TiledConfig config;
  config.memory_budget_bytes = static_cast<std::size_t>(budget_mb) << 20;
  config.force_tiled = true;
  config.spill_to_disk = true;
  const std::string tile_request = args.get_string("tile", "auto");
  if (!parse_tile_spec(tile_request, &config.tile_width,
                       &config.tile_height)) {
    std::cerr << "unparsable --tile value '" << tile_request
              << "' (expected WxH or auto)\n";
    return 2;
  }
  const TiledSegmenter segmenter(algorithm, params, config);

  // Live ops plane: `--ops-port=N` (or SSLIC_OPS_PORT) serves the runtime
  // state of the streamed run — /tracez shows the iteration and stage spans
  // (cpa.* / ppa.*) as the sweep completes them.
  telemetry::register_slic_statusz();
  ops::OpsServer ops_server;
  if (args.has("ops-port")) {
    if (!ops::compiled()) {
      std::cerr << "warning: --ops-port requested but this binary was built "
                   "with -DSSLIC_OPS=OFF; no server will be started\n";
    } else {
      ops::OpsServer::Options ops_options;
      ops_options.port = args.get_int("ops-port", 0);
      if (!ops_server.start(ops_options)) {
        std::cerr << "failed to start the ops server on port "
                  << ops_options.port << '\n';
        return 2;
      }
      std::cout << "ops server: http://127.0.0.1:" << ops_server.port()
                << " (/metrics /healthz /varz /statusz /tracez)\n";
    }
  } else {
    ops::start_global_from_env();
  }
  ops::heartbeat();

  std::cout << "==================================================================\n"
            << "Out-of-core tiled streaming — " << algorithm_name << " S-SLIC("
            << ratio << ")\n"
            << "workload: " << width << 'x' << height << " ("
            << Table::num(megapixels, 1) << " MP), K=" << superpixels << ", "
            << iterations << " iterations, budget " << budget_mb << " MiB\n"
            << "machine: " << bench::cpu_model_name() << ", "
            << ThreadPool::global().threads() << " thread(s)\n"
            << "store estimate: "
            << (segmenter.store_bytes_estimate(width, height) >> 20)
            << " MiB of spilled planes\n"
            << "==================================================================\n";

  // The streamed run goes FIRST: peak RSS is a process-wide high-water
  // mark, so the (optional) monolithic identity arm must not run before it.
  ProceduralLabSource source;
  DigestSink sink;
  TiledStats stats;
  Instrumentation instr;
  Stopwatch watch;
  segmenter.segment_rows(source, width, height, &sink, nullptr, &instr,
                         &stats);
  const double tiled_ms = watch.elapsed_ms();
  const double ms_per_megapixel = tiled_ms / megapixels;

  Table table("streamed run");
  table.set_header({"metric", "value"});
  table.add_row({"tiles", std::to_string(stats.tiles_x) + "x" +
                              std::to_string(stats.tiles_y)});
  table.add_row({"wall", Table::num(tiled_ms, 1) + " ms (" +
                             Table::num(ms_per_megapixel, 1) + " ms/MP)"});
  table.add_row({"mapped planes", Table::si(static_cast<double>(stats.store_bytes), 1) + "B"});
  table.add_row({"peak RSS", Table::si(static_cast<double>(stats.peak_rss), 1) + "B"});
  table.add_row({"DRAM/iteration (modelled)",
                 Table::si(static_cast<double>(stats.bytes_per_iteration), 1) + "B"});
  table.add_row({"halo traffic (total)",
                 Table::si(static_cast<double>(stats.halo_bytes), 1) + "B"});
  table.add_row({"final superpixels", std::to_string(stats.final_label_count)});
  table.add_row({"label digest", std::to_string(sink.digest())});
  std::cout << table;

  // Identity arm: the same pixels through the monolithic segmenter.
  bool identical = true;
  if (identity_check) {
    LabImage lab(width, height);
    ProceduralLabSource mono_source;
    for (int y = 0; y < height; ++y) {
      const std::size_t row =
          static_cast<std::size_t>(y) * static_cast<std::size_t>(width);
      mono_source.fill_row(y, lab.L.data() + row, lab.a.data() + row,
                           lab.b.data() + row, width);
    }
    const Segmentation mono = algorithm == Algorithm::kSslicPpa
                                  ? PpaSlic(params).segment_lab(lab)
                                  : CpaSlic(params).segment_lab(lab);
    DigestSink mono_digest;
    for (int y = 0; y < height; ++y)
      mono_digest.write_row(
          y,
          mono.labels.pixels().data() +
              static_cast<std::size_t>(y) * static_cast<std::size_t>(width),
          width);
    identical = mono_digest.digest() == sink.digest();
    std::cout << "identity vs monolithic: labels "
              << (identical ? "byte-identical" : "DIVERGED (bug!)") << '\n';
  }

  // Out-of-core gate: the planes must NOT fit under the ceiling while the
  // process RSS must stay under it — streaming did real work.
  bool ooc_ok = true;
  if (ooc_check) {
    const std::size_t ceiling = static_cast<std::size_t>(rss_ceiling_mb) << 20;
    const bool input_exceeds = stats.store_bytes > ceiling;
    const bool rss_under = stats.peak_rss <= ceiling;
    ooc_ok = input_exceeds && rss_under;
    std::cout << "ooc check (ceiling " << rss_ceiling_mb << " MiB): planes "
              << (stats.store_bytes >> 20) << " MiB "
              << (input_exceeds ? "exceed" : "DO NOT exceed (input too small)")
              << ", peak RSS " << (stats.peak_rss >> 20) << " MiB "
              << (rss_under ? "under" : "OVER") << " — "
              << (ooc_ok ? "PASS" : "FAIL") << '\n';
  }

  bench::GateMetrics gate;
  // The analytic traffic model is deterministic and gates tightly; RSS and
  // wall clock are host-dependent and get wide tolerances.
  gate.lower_is_better("bytes_per_iteration",
                       static_cast<double>(stats.bytes_per_iteration), "bytes",
                       0.01)
      .lower_is_better("peak_rss_bytes", static_cast<double>(stats.peak_rss),
                       "bytes", 0.25)
      .lower_is_better("tiled_ms_per_megapixel", ms_per_megapixel, "ms", 0.35);

  bench::Json::object()
      .set("bench", "tiled_streaming")
      .set("config", bench::Json::object()
                         .set("width", width)
                         .set("height", height)
                         .set("superpixels", superpixels)
                         .set("iterations", iterations)
                         .set("algorithm", algorithm_name)
                         .set("ratio", ratio)
                         .set("budget_mb", budget_mb)
                         .set("tile", tile_request))
      .set("tiles_x", stats.tiles_x)
      .set("tiles_y", stats.tiles_y)
      .set("store_bytes", static_cast<double>(stats.store_bytes))
      .set("peak_rss_bytes", static_cast<double>(stats.peak_rss))
      .set("bytes_per_iteration",
           static_cast<double>(stats.bytes_per_iteration))
      .set("halo_bytes", static_cast<double>(stats.halo_bytes))
      .set("tiled_ms", tiled_ms)
      .set("tiled_ms_per_megapixel", ms_per_megapixel)
      .set("final_label_count", stats.final_label_count)
      .set("label_digest", std::to_string(sink.digest()))
      .set("identity_checked", identity_check)
      .set("identical_to_monolithic", identical)
      .set("ooc_checked", ooc_check)
      .set("ooc_ok", ooc_ok)
      .set("gate", gate.json())
      .set("machine", bench::machine_json())
      .write_file("BENCH_tiled_streaming.json");

  if (!identical) return 3;
  if (!ooc_ok) return 4;
  return 0;
}
