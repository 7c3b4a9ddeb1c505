// Quickstart: segment an image into superpixels with S-SLIC and write the
// boundary overlay, the mean-color abstraction, and the label map.
//
//   quickstart [input.ppm] [--superpixels=900] [--compactness=10]
//              [--ratio=0.5] [--iterations=20] [--algorithm=ppa|cpa|slic|hw]
//              [--tile=WxH|auto] [--out=prefix]
//
// `--tile` routes the software algorithms through the out-of-core tiled
// driver — same labels, bounded memory — and prints the tile geometry and
// halo traffic.
//
// Without an input file a synthetic Berkeley-like test image is generated
// (with ground truth, so quality metrics are printed too).
#include <iostream>
#include <optional>
#include <string>

#include "color/color_convert.h"
#include "common/cli.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "dataset/synthetic.h"
#include "image/draw.h"
#include "image/io.h"
#include "metrics/segmentation_metrics.h"
#include "slic/hw_datapath.h"
#include "slic/segmenter.h"
#include "slic/tiled.h"

int main(int argc, char** argv) {
  using namespace sslic;
  const CliArgs args(argc, argv);

  // --- Load or synthesize the input. ---
  RgbImage image;
  std::optional<LabelImage> truth;
  if (!args.positional().empty()) {
    image = read_ppm(args.positional().front());
    std::cout << "loaded " << args.positional().front() << " (" << image.width()
              << 'x' << image.height() << ")\n";
  } else {
    SyntheticParams params;
    const GroundTruthImage gt =
        generate_synthetic(params, static_cast<std::uint64_t>(args.get_int("seed", 7)));
    image = gt.image;
    truth = gt.truth;
    std::cout << "generated synthetic " << image.width() << 'x' << image.height()
              << " test image with " << gt.num_regions
              << " ground-truth regions (pass a .ppm path to use your own)\n";
  }

  // --- Configure and run the segmenter. ---
  SlicParams params;
  params.num_superpixels = args.get_int("superpixels", 900);
  params.compactness = args.get_double("compactness", 10.0);
  params.subsample_ratio = args.get_double("ratio", 0.5);
  params.max_iterations = args.get_int("iterations", 20);

  // A bad --tile value warns once and is ignored.
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
  }

  const std::string algorithm = args.get_string("algorithm", "ppa");
  Stopwatch watch;
  Segmentation seg;
  if (algorithm == "hw") {
    if (tiled_requested)
      SSLIC_WARN("--tile applies to the software algorithms only; the hw "
                 "golden model ignores it");
    HwConfig hw;
    hw.num_superpixels = params.num_superpixels;
    hw.compactness = params.compactness;
    hw.iterations = params.max_iterations;
    hw.subsample_ratio = params.subsample_ratio;
    seg = HwSlic(hw).segment(image);
  } else {
    const Algorithm alg = algorithm == "slic" ? Algorithm::kSlic
                          : algorithm == "cpa" ? Algorithm::kSslicCpa
                                               : Algorithm::kSslicPpa;
    if (tiled_requested) {
      tile_config.force_tiled = true;  // an explicit request always tiles
      tile_config.spill_to_disk = true;
      TiledStats tile_stats;
      seg = TiledSegmenter(alg, params, tile_config)
                .segment_lab(srgb_to_lab(image), nullptr, &tile_stats);
      std::cout << "tiled driver: " << tile_stats.tiles_x << 'x'
                << tile_stats.tiles_y << " tiles, "
                << tile_stats.halo_bytes << " halo bytes, peak RSS "
                << (tile_stats.peak_rss >> 20) << " MiB\n";
    } else {
      seg = run_segmenter(alg, params, image);
    }
  }
  const double elapsed = watch.elapsed_ms();

  std::cout << "algorithm " << algorithm << ": "
            << count_labels(seg.labels) << " superpixels in "
            << seg.iterations_run << " iterations, " << elapsed << " ms\n";

  if (truth) {
    std::cout << "quality vs ground truth:\n"
              << "  undersegmentation error: "
              << undersegmentation_error(seg.labels, *truth) << '\n'
              << "  boundary recall (tol 2): "
              << boundary_recall(seg.labels, *truth, 2) << '\n'
              << "  achievable seg accuracy: "
              << achievable_segmentation_accuracy(seg.labels, *truth) << '\n';
  }
  std::cout << "compactness: " << compactness(seg.labels) << '\n';

  // --- Write outputs. ---
  const std::string prefix = args.get_string("out", "quickstart");
  write_ppm(prefix + "_input.ppm", image);
  write_ppm(prefix + "_boundaries.ppm", overlay_boundaries(image, seg.labels));
  write_ppm(prefix + "_abstraction.ppm",
            mean_color_abstraction(image, seg.labels));
  write_label_pgm(prefix + "_labels.pgm", seg.labels);
  std::cout << "wrote " << prefix << "_{input,boundaries,abstraction}.ppm and "
            << prefix << "_labels.pgm\n";
  return 0;
}
