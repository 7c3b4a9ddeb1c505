// Golden tests for the out-of-core tiled segmentation driver
// (slic/tiled.h) against the monolithic segmenters:
//
//  - labels AND centers must be byte-identical between the tiled and
//    monolithic paths for every algorithm variant, every compiled SIMD
//    backend, several thread counts, and both fusion settings of the
//    monolithic baseline — the identity contract of DESIGN.md §4h.
//  - seam edge cases: tile sizes that do not divide the image, a
//    single-pixel remainder row/column, one tile covering the whole image,
//    and superpixels spanning four tile corners.
//  - the spill-to-disk mode (mmap + MADV_DONTNEED page release) must not
//    change a single byte, and PlanarStore released rows must refault with
//    their data intact.
//  - the streaming entry (segment_rows) must produce the same labels and
//    centers as the in-memory entry without materializing the image.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "color/color_convert.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "dataset/synthetic.h"
#include "image/planar_store.h"
#include "slic/assign_kernels.h"
#include "slic/fusion.h"
#include "slic/slic_baseline.h"
#include "slic/subsampled.h"
#include "slic/tiled.h"
#include "slic/types.h"

namespace sslic {
namespace {

struct IsaGuard {
  ~IsaGuard() { simd::reset_preferred_isa(); }
};

struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { ThreadPool::set_global_threads(0); }
};

std::vector<simd::Isa> testable_isas() {
  std::vector<simd::Isa> isas{simd::Isa::kScalar};
  for (const simd::Isa isa :
       {simd::Isa::kSse2, simd::Isa::kAvx2, simd::Isa::kAvx512,
        simd::Isa::kNeon}) {
    if (kernels::backend_compiled(isa) && simd::cpu_supports(isa))
      isas.push_back(isa);
  }
  return isas;
}

struct Variant {
  std::string name;
  Algorithm algorithm = Algorithm::kSslicCpa;
  SlicParams params;
};

std::vector<Variant> variants() {
  std::vector<Variant> out;
  {
    Variant v{"cpa-exact", Algorithm::kSslicCpa, {}};
    v.params.num_superpixels = 80;
    v.params.max_iterations = 5;
    out.push_back(v);
  }
  {
    Variant v{"cpa-subsampled-0.5", Algorithm::kSslicCpa, {}};
    v.params.num_superpixels = 80;
    v.params.max_iterations = 6;
    v.params.subsample_ratio = 0.5;
    out.push_back(v);
  }
  {
    Variant v{"ppa-dithered-0.5", Algorithm::kSslicPpa, {}};
    v.params.num_superpixels = 80;
    v.params.max_iterations = 6;
    v.params.subsample_ratio = 0.5;
    out.push_back(v);
  }
  {
    Variant v{"ppa-preemptive-0.5", Algorithm::kSslicPpa, {}};
    v.params.num_superpixels = 80;
    v.params.max_iterations = 8;
    v.params.subsample_ratio = 0.5;
    v.params.preemptive = true;
    out.push_back(v);
  }
  return out;
}

Segmentation run_monolithic(const Variant& v, const LabImage& lab) {
  if (v.algorithm == Algorithm::kSslicPpa)
    return PpaSlic(v.params).segment_lab(lab);
  return CpaSlic(v.params).segment_lab(lab);
}

Segmentation run_tiled(const Variant& v, const LabImage& lab, int tile_w,
                       int tile_h, bool spill = false,
                       TiledStats* stats = nullptr) {
  TiledConfig config;
  config.tile_width = tile_w;
  config.tile_height = tile_h;
  config.force_tiled = true;
  config.spill_to_disk = spill;
  const TiledSegmenter segmenter(v.algorithm, v.params, config);
  return segmenter.segment_lab(lab, nullptr, stats);
}

static_assert(sizeof(ClusterCenter) == 5 * sizeof(double),
              "memcmp center comparison assumes a packed layout");

/// Byte-level equality: operator== on doubles would let -0.0 pass for
/// +0.0 and hide a summation-order change.
void expect_identical(const Segmentation& tiled, const Segmentation& mono,
                      const std::string& what) {
  EXPECT_EQ(tiled.iterations_run, mono.iterations_run) << what;
  ASSERT_EQ(tiled.labels.width(), mono.labels.width()) << what;
  ASSERT_EQ(tiled.labels.height(), mono.labels.height()) << what;
  EXPECT_TRUE(std::equal(tiled.labels.pixels().begin(),
                         tiled.labels.pixels().end(),
                         mono.labels.pixels().begin()))
      << what << ": labels differ";
  ASSERT_EQ(tiled.centers.size(), mono.centers.size()) << what;
  EXPECT_EQ(0, std::memcmp(tiled.centers.data(), mono.centers.data(),
                           tiled.centers.size() * sizeof(ClusterCenter)))
      << what << ": centers differ at the byte level";
  // Per-iteration visited-pixel tallies are an independent seam check: the
  // tiled PPA path sums real per-tile counts where the monolithic path sums
  // per-row counts, so a dropped or double-swept segment shows up here even
  // if the labels happen to agree.
  ASSERT_EQ(tiled.trace.size(), mono.trace.size()) << what;
  for (std::size_t i = 0; i < tiled.trace.size(); ++i) {
    EXPECT_EQ(tiled.trace[i].pixels_visited, mono.trace[i].pixels_visited)
        << what << ": iteration " << i << " visited-pixel tally";
  }
}

TEST(TiledIdentity, MatchesMonolithicAcrossVariantsIsasThreadsAndFusion) {
  // The full identity matrix. The tiled driver has a fixed pass structure,
  // so the fusion toggle only varies the monolithic baseline — identity
  // under both settings proves the tiled output sits on the shared
  // fused/two-pass fixpoint.
  const GroundTruthImage gt = generate_synthetic({160, 120}, 41);
  const LabImage lab = srgb_to_lab(gt.image);
  IsaGuard isa_guard;
  GlobalThreadsGuard threads_guard;
  for (const Variant& v : variants()) {
    for (const simd::Isa isa : testable_isas()) {
      simd::set_preferred_isa(isa);
      for (const int threads : {1, 3, 7}) {
        ThreadPool::set_global_threads(threads);
        for (const bool fused : {true, false}) {
          FusionGuard fusion_guard(fused);
          const std::string what = v.name + " isa=" + simd::isa_name(isa) +
                                   " threads=" + std::to_string(threads) +
                                   " fused=" + (fused ? "1" : "0");
          const Segmentation mono = run_monolithic(v, lab);
          // 57x41 divides neither dimension: every interior seam is
          // exercised, including ragged right/bottom tiles.
          const Segmentation tiled = run_tiled(v, lab, 57, 41);
          expect_identical(tiled, mono, what);
        }
      }
    }
  }
}

TEST(TiledIdentity, SeamEdgeCaseTileGeometries) {
  const GroundTruthImage gt = generate_synthetic({160, 120}, 43);
  const LabImage lab = srgb_to_lab(gt.image);
  for (const Variant& v : variants()) {
    const Segmentation mono = run_monolithic(v, lab);
    const struct {
      int w, h;
      const char* why;
    } cases[] = {
        {160, 120, "single tile covering the image"},
        {159, 119, "single-pixel remainder row and column"},
        {160, 1, "one-row tiles"},
        {1, 120, "one-column tiles"},
        {57, 41, "non-dividing interior seams"},
        {80, 60, "exact 2x2 split"},
        {13, 7, "many small ragged tiles"},
    };
    for (const auto& c : cases) {
      const Segmentation tiled = run_tiled(v, lab, c.w, c.h);
      expect_identical(tiled, mono,
                       v.name + " tile=" + std::to_string(c.w) + "x" +
                           std::to_string(c.h) + " (" + c.why + ")");
    }
  }
}

TEST(TiledIdentity, SuperpixelSpanningFourTileCorners) {
  // K=4 on 64x64 puts each center at a 32x32 quadrant middle; a 32x32 tile
  // grid then runs its seams straight through every superpixel, and the
  // center pixel's 4 candidate windows meet at a four-tile corner.
  const GroundTruthImage gt = generate_synthetic({64, 64}, 47);
  const LabImage lab = srgb_to_lab(gt.image);
  for (const Algorithm algorithm :
       {Algorithm::kSslicCpa, Algorithm::kSslicPpa}) {
    Variant v;
    v.name = algorithm == Algorithm::kSslicPpa ? "ppa-corner" : "cpa-corner";
    v.algorithm = algorithm;
    v.params.num_superpixels = 4;
    v.params.max_iterations = 5;
    const Segmentation mono = run_monolithic(v, lab);
    const Segmentation tiled = run_tiled(v, lab, 32, 32);
    expect_identical(tiled, mono, v.name);
  }
}

TEST(TiledIdentity, SpillToDiskMatchesInMemory) {
  const GroundTruthImage gt = generate_synthetic({160, 120}, 53);
  const LabImage lab = srgb_to_lab(gt.image);
  for (const Variant& v : variants()) {
    const Segmentation mono = run_monolithic(v, lab);
    TiledStats stats;
    const Segmentation tiled = run_tiled(v, lab, 57, 41, /*spill=*/true, &stats);
    expect_identical(tiled, mono, v.name + " spill");
    EXPECT_TRUE(stats.used_tiled_path);
    EXPECT_GT(stats.tiles_x * stats.tiles_y, 1) << v.name;
  }
}

TEST(TiledIdentity, DegenerateTinyImages) {
  // 2-pixel edges: the seeding probe clamps its 3x3 window at both borders
  // at once; both algorithms must still match the monolithic output
  // exactly.
  for (const auto& [w, h] : {std::pair{2, 2}, {2, 9}, {9, 2}, {3, 3}}) {
    LabImage lab(w, h);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        lab.set(x, y, LabF{static_cast<float>(10 * x + y),
                           static_cast<float>(x - y), static_cast<float>(x * y)});
    for (const Algorithm algorithm :
         {Algorithm::kSslicCpa, Algorithm::kSslicPpa}) {
      Variant v{"tiny", algorithm, {}};
      v.params.num_superpixels = 2;
      v.params.max_iterations = 3;
      const Segmentation mono = run_monolithic(v, lab);
      const Segmentation tiled = run_tiled(v, lab, 1, 1);
      const std::string name =
          algorithm == Algorithm::kSslicPpa ? "ppa" : "cpa";
      expect_identical(tiled, mono,
                       name + " tiny " + std::to_string(w) + "x" +
                           std::to_string(h));
    }
  }
}

TEST(TiledInstrumentation, ConnectivitySignalsAndIterationsMatchMonolithic) {
  // The tiled driver runs its own connectivity pass (the flood fill over
  // the label plane); the signals it reports must be the monolithic run's.
  const GroundTruthImage gt = generate_synthetic({160, 120}, 71);
  const LabImage lab = srgb_to_lab(gt.image);
  for (const Variant& v : variants()) {
    Instrumentation mono;
    if (v.algorithm == Algorithm::kSslicPpa) {
      (void)PpaSlic(v.params).segment_lab(lab, {}, &mono);
    } else {
      (void)CpaSlic(v.params).segment_lab(lab, {}, &mono);
    }
    TiledConfig config;
    config.tile_width = 57;
    config.tile_height = 41;
    config.force_tiled = true;
    Instrumentation tiled;
    (void)TiledSegmenter(v.algorithm, v.params, config).segment_lab(lab, &tiled);
    EXPECT_GT(mono.final_label_count, 0u) << v.name;
    EXPECT_EQ(tiled.final_label_count, mono.final_label_count) << v.name;
    EXPECT_EQ(tiled.pixels_relabelled, mono.pixels_relabelled) << v.name;
    EXPECT_EQ(tiled.iterations, mono.iterations) << v.name;
  }
}

TEST(TiledStats, ReportsGeometryHaloAndTraffic) {
  const GroundTruthImage gt = generate_synthetic({160, 120}, 59);
  const LabImage lab = srgb_to_lab(gt.image);
  Variant v = variants()[0];
  TiledStats stats;
  (void)run_tiled(v, lab, 57, 41, false, &stats);
  EXPECT_TRUE(stats.used_tiled_path);
  EXPECT_EQ(stats.tiles_x, 3);  // ceil(160/57)
  EXPECT_EQ(stats.tiles_y, 3);  // ceil(120/41)
  // 80 superpixels on 160x120 gives ~14px spacing; scan windows span tile
  // seams, so halo traffic must be non-zero.
  EXPECT_GT(stats.halo_bytes, 0u);
  EXPECT_GT(stats.bytes_per_iteration, 0u);
  EXPECT_GT(stats.store_bytes, 0u);
  EXPECT_GT(stats.final_label_count, 0);
}

TEST(TiledFallback, SmallImageDelegatesToMonolithic) {
  const GroundTruthImage gt = generate_synthetic({160, 120}, 61);
  const LabImage lab = srgb_to_lab(gt.image);
  Variant v = variants()[0];
  TiledConfig config;  // default 512 MiB budget; 160x120 trivially fits
  const TiledSegmenter segmenter(v.algorithm, v.params, config);
  TiledStats stats;
  const Segmentation got = segmenter.segment_lab(lab, nullptr, &stats);
  EXPECT_FALSE(stats.used_tiled_path);
  const Segmentation mono = run_monolithic(v, lab);
  expect_identical(got, mono, "fallback");
}

// --- Streaming entry -------------------------------------------------------

class ImageRowSource final : public LabRowSource {
 public:
  explicit ImageRowSource(const LabImage& lab) : lab_(lab) {}
  void fill_row(int y, float* L, float* a, float* b, int width) override {
    for (int x = 0; x < width; ++x) {
      const LabF px = lab_(x, y);
      L[x] = px.L;
      a[x] = px.a;
      b[x] = px.b;
    }
    rows_filled_ += 1;
  }
  [[nodiscard]] int rows_filled() const { return rows_filled_; }

 private:
  const LabImage& lab_;
  int rows_filled_ = 0;
};

class CollectingSink final : public LabelRowSink {
 public:
  CollectingSink(int width, int height)
      : width_(width),
        labels_(static_cast<std::size_t>(width) *
                static_cast<std::size_t>(height)) {}
  void write_row(int y, const std::int32_t* labels, int width) override {
    std::memcpy(labels_.data() +
                    static_cast<std::size_t>(y) * static_cast<std::size_t>(width_),
                labels, static_cast<std::size_t>(width) * sizeof(std::int32_t));
    rows_written_ += 1;
  }
  [[nodiscard]] const std::vector<std::int32_t>& labels() const {
    return labels_;
  }
  [[nodiscard]] int rows_written() const { return rows_written_; }

 private:
  int width_;
  std::vector<std::int32_t> labels_;
  int rows_written_ = 0;
};

TEST(TiledStreaming, SegmentRowsMatchesInMemoryEntry) {
  const GroundTruthImage gt = generate_synthetic({160, 120}, 67);
  const LabImage lab = srgb_to_lab(gt.image);
  for (const Variant& v : variants()) {
    const Segmentation mono = run_monolithic(v, lab);

    TiledConfig config;
    config.tile_width = 57;
    config.tile_height = 41;
    config.force_tiled = true;
    config.spill_to_disk = true;
    const TiledSegmenter segmenter(v.algorithm, v.params, config);

    ImageRowSource source(lab);
    CollectingSink sink(lab.width(), lab.height());
    std::vector<ClusterCenter> centers;
    TiledStats stats;
    segmenter.segment_rows(source, lab.width(), lab.height(), &sink, &centers,
                           nullptr, &stats);

    EXPECT_EQ(source.rows_filled(), lab.height()) << v.name;
    EXPECT_EQ(sink.rows_written(), lab.height()) << v.name;
    EXPECT_TRUE(std::equal(sink.labels().begin(), sink.labels().end(),
                           mono.labels.pixels().begin()))
        << v.name << ": streamed labels differ";
    ASSERT_EQ(centers.size(), mono.centers.size()) << v.name;
    EXPECT_EQ(0, std::memcmp(centers.data(), mono.centers.data(),
                             centers.size() * sizeof(ClusterCenter)))
        << v.name << ": streamed centers differ";
    EXPECT_TRUE(stats.used_tiled_path) << v.name;
  }
}

// --- Tile spec parsing -----------------------------------------------------

TEST(TileSpec, ParsesAndRejects) {
  int w = -1, h = -1;
  EXPECT_TRUE(parse_tile_spec("512x256", &w, &h));
  EXPECT_EQ(w, 512);
  EXPECT_EQ(h, 256);
  EXPECT_TRUE(parse_tile_spec("64X64", &w, &h));  // case-insensitive
  EXPECT_EQ(w, 64);
  EXPECT_EQ(h, 64);
  EXPECT_TRUE(parse_tile_spec("auto", &w, &h));
  EXPECT_EQ(w, 0);
  EXPECT_EQ(h, 0);
  EXPECT_TRUE(parse_tile_spec("0", &w, &h));
  EXPECT_EQ(w, 0);
  EXPECT_EQ(h, 0);
  for (const char* bad : {"", "x", "512", "512x", "x256", "0x0", "-1x4",
                          "4x-1", "12ax9", "1048577x4", "4x1048577"}) {
    EXPECT_FALSE(parse_tile_spec(bad, &w, &h)) << "\"" << bad << "\"";
  }
}

// --- PlanarStore -----------------------------------------------------------

TEST(PlanarStore, ReleasedRowsRefaultWithDataIntact) {
  // The whole RSS-bounding scheme rests on MADV_DONTNEED over a MAP_SHARED
  // file mapping dropping residency but NOT data; prove it for every plane.
  PlanarStore store;
  PlanarStore::Config config;
  config.spill_to_disk = true;
  store.open(64, 48, /*with_min_dist=*/true, config);
  ASSERT_TRUE(store.is_open());
  EXPECT_TRUE(store.disk_backed());
  const std::size_t n = 64 * 48;
  for (std::size_t i = 0; i < n; ++i) {
    store.lab_l()[i] = static_cast<float>(i);
    store.lab_a()[i] = static_cast<float>(i) * 0.5f;
    store.lab_b()[i] = -static_cast<float>(i);
    store.labels()[i] = static_cast<std::int32_t>(i % 97);
    store.labels_out()[i] = static_cast<std::int32_t>(i % 89);
    store.min_dist()[i] = static_cast<double>(i) * 1.25;
  }
  store.release_rows(0, 48);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(store.lab_l()[i], static_cast<float>(i)) << i;
    ASSERT_EQ(store.lab_a()[i], static_cast<float>(i) * 0.5f) << i;
    ASSERT_EQ(store.lab_b()[i], -static_cast<float>(i)) << i;
    ASSERT_EQ(store.labels()[i], static_cast<std::int32_t>(i % 97)) << i;
    ASSERT_EQ(store.labels_out()[i], static_cast<std::int32_t>(i % 89)) << i;
    ASSERT_EQ(store.min_dist()[i], static_cast<double>(i) * 1.25) << i;
  }
  store.close();
  EXPECT_FALSE(store.is_open());
}

TEST(PlanarStore, AnonymousModeSkipsMinDistWhenNotRequested) {
  PlanarStore store;
  store.open(16, 16, /*with_min_dist=*/false);
  EXPECT_FALSE(store.disk_backed());
  EXPECT_EQ(store.min_dist(), nullptr);
  EXPECT_GE(store.bytes_mapped(), std::size_t{16 * 16 * 20});
  // Anonymous release must be a no-op (DONTNEED would zero the data).
  store.labels()[0] = 42;
  store.release_rows(0, 16);
  EXPECT_EQ(store.labels()[0], 42);
}

}  // namespace
}  // namespace sslic
