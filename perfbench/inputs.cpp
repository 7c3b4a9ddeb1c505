// Workload table, seeded input generation, and small shared utilities.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>

#include "bench.h"
#include "dataset/synthetic.h"

namespace perfbench {
namespace {

// Rates sit near half the capacity of a 3-thread pool on a 4-core x86 host
// (live540 ~90 ms per frame, fleet360 ~125-160 ms per six-frame tick), so
// queueing does not amplify host noise. README.md gives the reasoning.
const WorkloadSpec kWorkloads[] = {
    {.name = "live540", .width = 960, .height = 540, .superpixels = 900,
     .subsample_ratio = 0.5, .streams = 1, .ticks_per_s = 5.0,
     .warmup_ticks = 3, .oracle_ticks = 12, .quality_every = 7, .scenes = 4,
     .frames_per_scene = 4, .traced_ticks = 24},
    {.name = "fleet360", .width = 640, .height = 360, .superpixels = 400,
     .subsample_ratio = 0.5, .streams = 6, .ticks_per_s = 3.0,
     .warmup_ticks = 3, .oracle_ticks = 6, .quality_every = 9, .scenes = 2,
     .frames_per_scene = 4, .traced_ticks = 12},
    {.name = "stills1080", .width = 1920, .height = 1080, .superpixels = 5000,
     .subsample_ratio = 1.0, .streams = 0, .ticks_per_s = 0.0,
     .warmup_ticks = 1, .oracle_ticks = 0, .quality_every = 0, .scenes = 2,
     .frames_per_scene = 2, .traced_ticks = 8},
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The camera model of examples/video_pipeline.cpp: a held scene re-shot
/// with a drifting exposure and fresh sensor noise (triangular, sigma ~2
/// levels; cheaper to draw than Gaussian noise at 1080p).
sslic::RgbImage camera_frame(const sslic::RgbImage& scene, double phase,
                             std::uint64_t noise_seed) {
  sslic::RgbImage out = scene;
  const double exposure = 1.0 + 0.04 * std::sin(0.9 * phase);
  std::uint64_t state = splitmix64(noise_seed) | 1u;
  std::uint64_t bits = 0;
  int left = 0;
  const auto noise = [&]() {
    if (left == 0) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      bits = state;
      left = 4;
    }
    const auto u1 = static_cast<double>(bits & 0xff);
    const auto u2 = static_cast<double>((bits >> 8) & 0xff);
    bits >>= 16;
    --left;
    return (u1 + u2 - 255.0) * (4.9 / 255.0);
  };
  for (sslic::Rgb8& px : out.pixels()) {
    const auto shoot = [&](std::uint8_t v) {
      const double value = v * exposure + noise();
      return static_cast<std::uint8_t>(std::clamp(std::lround(value), 0L, 255L));
    };
    px = {shoot(px.r), shoot(px.g), shoot(px.b)};
  }
  return out;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads)
    if (name == spec.name) return &spec;
  return nullptr;
}

sslic::SlicParams slic_params(const WorkloadSpec& spec) {
  sslic::SlicParams params;
  params.num_superpixels = spec.superpixels;
  params.subsample_ratio = spec.subsample_ratio;
  params.max_iterations = 10;
  return params;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  sslic::SyntheticParams scene;
  scene.width = spec.width;
  scene.height = spec.height;
  const int clips = std::max(spec.streams, 1);
  std::uint64_t workload = 0;
  for (const char* c = spec.name; *c != '\0'; ++c)
    workload = splitmix64(workload ^ static_cast<unsigned char>(*c));
  const std::uint64_t camera = splitmix64(seed ^ workload);

  // Scene content is fixed per workload: the quality metrics move by tens
  // of percent from one synthetic scene to the next, which would drown any
  // change in the segmenter. The seed drives the camera instead: which
  // scene each clip opens with, the exposure phase, and the sensor noise.
  Inputs inputs;
  inputs.clips.resize(static_cast<std::size_t>(clips));
  for (int c = 0; c < clips; ++c) {
    auto& clip = inputs.clips[static_cast<std::size_t>(c)];
    const std::uint64_t clip_camera = splitmix64(camera + static_cast<std::uint64_t>(c));
    const auto first = static_cast<int>(clip_camera % static_cast<std::uint64_t>(spec.scenes));
    const double phase = static_cast<double>(clip_camera % 7);
    for (int i = 0; i < spec.scenes; ++i) {
      const int s = (first + i) % spec.scenes;
      sslic::GroundTruthImage gt = sslic::generate_synthetic(
          scene, splitmix64(workload + static_cast<std::uint64_t>(c * 1000 + s)));
      const int truth = static_cast<int>(inputs.truths.size());
      for (int f = 0; f < spec.frames_per_scene; ++f) {
        const auto index = static_cast<std::uint64_t>(clip.size());
        clip.push_back({camera_frame(gt.image, phase + static_cast<double>(index),
                                     clip_camera + 1 + index),
                        truth});
      }
      inputs.truths.push_back(std::move(gt.truth));
    }
  }
  return inputs;
}

std::uint64_t label_hash(const sslic::LabelImage& labels) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::int32_t label : labels.pixels()) {
    hash ^= static_cast<std::uint32_t>(label);
    hash *= 0x100000001b3ull;
  }
  hash ^= static_cast<std::uint64_t>(labels.width()) << 32 |
          static_cast<std::uint32_t>(labels.height());
  return hash * 0x100000001b3ull;
}

double now_ms() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

Usage process_usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  // Linux reports ru_maxrss in KiB.
  return {ms(usage.ru_utime) + ms(usage.ru_stime),
          static_cast<double>(usage.ru_maxrss) / 1024.0};
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

// Setup-case file: "PBSETUP1", workload name, then per frame its width,
// height, oracle hash and RGB bytes. Written and read on the same host.
void write_setup_case(const std::string& path, const SetupCase& setup) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const auto put = [&](const auto& value) {
    out.write(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  out.write("PBSETUP1", 8);
  put(static_cast<std::uint32_t>(setup.workload.size()));
  out.write(setup.workload.data(),
            static_cast<std::streamsize>(setup.workload.size()));
  put(static_cast<std::uint32_t>(setup.frames.size()));
  for (std::size_t i = 0; i < setup.frames.size(); ++i) {
    const sslic::RgbImage& frame = setup.frames[i];
    put(static_cast<std::int32_t>(frame.width()));
    put(static_cast<std::int32_t>(frame.height()));
    put(setup.expected[i]);
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size() * sizeof(sslic::Rgb8)));
  }
}

bool read_setup_case(const std::string& path, SetupCase* setup) {
  std::ifstream in(path, std::ios::binary);
  const auto get = [&](auto* value) {
    in.read(reinterpret_cast<char*>(value), sizeof(*value));
    return static_cast<bool>(in);
  };
  char magic[8] = {};
  in.read(magic, 8);
  if (!in || std::memcmp(magic, "PBSETUP1", 8) != 0) return false;
  std::uint32_t name_size = 0;
  if (!get(&name_size) || name_size > 64) return false;
  setup->workload.resize(name_size);
  in.read(setup->workload.data(), name_size);
  std::uint32_t count = 0;
  if (!get(&count) || count > 64) return false;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::int32_t width = 0;
    std::int32_t height = 0;
    std::uint64_t expected = 0;
    if (!get(&width) || !get(&height) || !get(&expected)) return false;
    if (width <= 0 || height <= 0 || width > 8192 || height > 8192) return false;
    sslic::RgbImage frame(width, height);
    in.read(reinterpret_cast<char*>(frame.data()),
            static_cast<std::streamsize>(frame.size() * sizeof(sslic::Rgb8)));
    if (!in) return false;
    setup->frames.push_back(std::move(frame));
    setup->expected.push_back(expected);
  }
  return true;
}

}  // namespace perfbench
