// Reproduction scoreboard: every headline claim of the paper's abstract and
// conclusions, checked in one run. Each row prints the paper's claim, this
// repository's measurement, and a PASS/FAIL verdict; the exit code is the
// number of failing claims.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "hw/dse.h"
#include "hw/gpu_reference.h"
#include "slic/connectivity.h"
#include "slic/slic_baseline.h"
#include "slic/subsampled.h"

namespace {

using namespace sslic;

struct Claim {
  std::string description;
  std::string paper;
  std::string measured;
  bool pass = false;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sslic::hw;
  bench::BenchConfig config = bench::BenchConfig::parse(argc, argv);
  if (!CliArgs(argc, argv).has("images")) config.images = 6;
  bench::banner("Reproduction scoreboard — the paper's headline claims", config);

  std::vector<Claim> claims;
  const FrameReport hd = AcceleratorModel(AcceleratorDesign{}).evaluate();

  // --- Abstract: real-time performance. ---
  claims.push_back({"30 fps on 1920x1080 (real time)", "30.5 fps",
                    Table::num(hd.fps, 1) + " fps", hd.fps >= 30.0});

  // --- Abstract: 250x energy efficiency vs the mobile GPU. ---
  const double vs_tk1 =
      normalized_energy_per_frame_j(tegra_k1()) / hd.energy_per_frame_j;
  claims.push_back({"energy efficiency vs Tegra K1 (mobile GPU)", ">= 250x",
                    Table::num(vs_tk1, 0) + "x", vs_tk1 >= 250.0});
  const double vs_k20 =
      normalized_energy_per_frame_j(tesla_k20()) / hd.energy_per_frame_j;
  claims.push_back({"energy efficiency vs Tesla K20", "> 500x",
                    Table::num(vs_k20, 0) + "x", vs_k20 > 500.0});

  // --- Conclusions: 0.066 mm2, 49 mW, 1.6 mJ/frame. ---
  claims.push_back({"silicon area at the HD design point", "0.066 mm2",
                    Table::num(hd.area_mm2, 3) + " mm2",
                    std::fabs(hd.area_mm2 - 0.066) < 0.066 * 0.05});
  claims.push_back({"average power at the HD design point", "49 mW",
                    Table::num(hd.average_power_w * 1e3, 0) + " mW",
                    std::fabs(hd.average_power_w - 0.049) < 0.049 * 0.06});
  claims.push_back({"energy per frame", "1.6 mJ",
                    Table::num(hd.energy_per_frame_j * 1e3, 2) + " mJ",
                    std::fabs(hd.energy_per_frame_j - 1.6e-3) < 1.6e-3 * 0.06});

  // --- Abstract: 1.8x memory-bandwidth reduction from subsampling.
  // Measured with the instrumented software-prototype traffic convention
  // (the one Table 2 is stated in): PPA at full sampling vs S-SLIC(0.5) at
  // the same number of iterations ("the same number of full iterations",
  // Table 1's framing). ---
  {
    const GroundTruthImage gt =
        generate_synthetic(config.dataset_params(), config.seed);
    SlicParams p = config.slic_params();
    p.enforce_connectivity = false;
    Instrumentation full_instr;
    p.subsample_ratio = 1.0;
    (void)PpaSlic(p).segment(gt.image, {}, &full_instr);
    Instrumentation half_instr;
    p.subsample_ratio = 0.5;
    (void)PpaSlic(p).segment(gt.image, {}, &half_instr);
    const double reduction = static_cast<double>(full_instr.traffic.total()) /
                             static_cast<double>(half_instr.traffic.total());
    claims.push_back({"bandwidth reduction from pixel subsampling", "1.8x",
                      Table::num(reduction, 2) + "x",
                      reduction > 1.5 && reduction < 2.2});
  }

  // --- Section 6.3 / Fig. 6: 4 kB is the smallest real-time buffer. ---
  {
    const DesignSpaceExplorer dse{AcceleratorDesign{}};
    const auto pts = dse.sweep_buffer_sizes({1024, 2048, 4096});
    const bool ok = !pts[0].report.real_time() && !pts[1].report.real_time() &&
                    pts[2].report.real_time();
    claims.push_back({"smallest real-time channel buffer", "4 kB",
                      ok ? "4 kB" : "differs", ok});
  }

  // --- Section 6.2: the 9-9-6 cluster configuration wins the DSE. ---
  {
    const DesignSpaceExplorer dse{AcceleratorDesign{}};
    const auto pts = dse.sweep_cluster_configs(
        {ClusterUnitConfig::way_111(), ClusterUnitConfig::way_911(),
         ClusterUnitConfig::way_191(), ClusterUnitConfig::way_116(),
         ClusterUnitConfig::way_996()});
    const DsePoint* best = DesignSpaceExplorer::best_real_time(pts);
    const std::string name = best != nullptr ? best->design.cluster.name() : "none";
    claims.push_back({"DSE-selected cluster configuration", "9-9-6", name,
                      name == "9-9-6"});
  }

  // --- Fig. 2 (CPU): S-SLIC reaches SLIC's quality in less time. ---
  {
    double slic_time = 0.0, slic_use = 0.0;
    double sslic_time = -1.0;
    // SLIC converged quality and time.
    std::vector<double> use_curve;
    std::vector<double> time_curve;
    for (int i = 0; i < config.images; ++i) {
      const GroundTruthImage gt =
          generate_synthetic(config.dataset_params(),
                             config.seed + static_cast<std::uint64_t>(i));
      SlicParams p = config.slic_params();
      p.enforce_connectivity = false;
      const Segmentation seg = CpaSlic(p).segment(gt.image);
      double cumulative = 0.0;
      for (const auto& s : seg.trace) cumulative += s.elapsed_ms;
      LabelImage labels = seg.labels;
      enforce_connectivity(labels, p.num_superpixels);
      slic_time += cumulative;
      slic_use += undersegmentation_error(labels, gt.truth);
    }
    slic_time /= config.images;
    slic_use /= config.images;

    // S-SLIC(0.5): earliest mean time reaching that USE.
    const int subset_iters = config.iterations * 2;
    std::vector<double> use_at(static_cast<std::size_t>(subset_iters), 0.0);
    std::vector<double> time_at(static_cast<std::size_t>(subset_iters), 0.0);
    for (int i = 0; i < config.images; ++i) {
      const GroundTruthImage gt =
          generate_synthetic(config.dataset_params(),
                             config.seed + static_cast<std::uint64_t>(i));
      SlicParams p = config.slic_params();
      p.subsample_ratio = 0.5;
      p.max_iterations = subset_iters;
      p.enforce_connectivity = false;
      double cumulative = 0.0;
      (void)PpaSlic(p).segment(
          gt.image, [&](const IterationStats& stats, const LabelImage& labels,
                        const std::vector<ClusterCenter>&) {
            cumulative += stats.elapsed_ms;
            LabelImage snapshot = labels;
            enforce_connectivity(snapshot, p.num_superpixels);
            const auto idx = static_cast<std::size_t>(stats.iteration);
            use_at[idx] += undersegmentation_error(snapshot, gt.truth);
            time_at[idx] += cumulative;
          });
    }
    for (std::size_t i = 0; i < use_at.size(); ++i) {
      use_at[i] /= config.images;
      time_at[i] /= config.images;
      if (sslic_time < 0.0 && use_at[i] <= slic_use * 1.02) sslic_time = time_at[i];
    }
    const double saving =
        sslic_time < 0.0 ? -1.0 : (1.0 - sslic_time / slic_time) * 100.0;
    claims.push_back({"S-SLIC(0.5) reaches SLIC's USE in less time (CPU)",
                      "~25% less",
                      sslic_time < 0.0 ? "not reached"
                                       : Table::num(saving, 0) + "% less",
                      saving > 0.0});
  }

  // --- Section 6.1: 8-bit datapath costs ~nothing (CPU). ---
  {
    double use_f64 = 0.0, use_fx8 = 0.0;
    for (int i = 0; i < config.images; ++i) {
      const GroundTruthImage gt =
          generate_synthetic(config.dataset_params(),
                             config.seed + static_cast<std::uint64_t>(i));
      SlicParams p = config.slic_params();
      p.subsample_ratio = 0.5;
      p.max_iterations = config.iterations * 2;
      use_f64 += undersegmentation_error(
          PpaSlic(p, DataWidth::float64()).segment(gt.image).labels, gt.truth);
      use_fx8 += undersegmentation_error(
          PpaSlic(p, DataWidth::fixed(8)).segment(gt.image).labels, gt.truth);
    }
    const double delta = (use_fx8 - use_f64) / config.images;
    std::string delta_str = delta >= 0 ? "+" : "";
    delta_str += Table::num(delta, 4);
    claims.push_back({"8-bit datapath USE penalty vs float64 (CPU)",
                      "+0.003", std::move(delta_str),
                      std::fabs(delta) < 0.01});
  }

  // --- Render the scoreboard. ---
  Table table("Headline claims");
  table.set_header({"claim", "paper", "measured", "verdict"});
  int failures = 0;
  for (const auto& claim : claims) {
    table.add_row({claim.description, claim.paper, claim.measured,
                   claim.pass ? "PASS" : "FAIL"});
    failures += claim.pass ? 0 : 1;
  }
  std::cout << table << '\n';
  if (failures == 0)
    std::cout << "all headline claims reproduce.\n";
  else
    std::cout << failures << " claim(s) FAILED.\n";
  return failures;
}
