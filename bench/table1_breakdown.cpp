// Reproduces paper Table 1: per-phase time breakdown of SLIC and S-SLIC on
// the CPU (the paper profiled an i7-4600M on the Berkeley benchmark).
//
// Phases: color conversion / distance+min / center update / other
// (initialization + connectivity enforcement).
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "slic/fusion.h"
#include "slic/slic_baseline.h"
#include "slic/subsampled.h"

int main(int argc, char** argv) {
  using namespace sslic;
  bench::BenchConfig config = bench::BenchConfig::parse(argc, argv);
  // Paper-model table: the paper profiled the classic two-pass loop, where
  // sigma accumulation is a separate center-update phase. The fused loop
  // moves that work into the assignment phase and would skew the per-phase
  // percentages; pin it off (bench/fused_iteration measures the fused win).
  set_fusion(false);
  bench::banner("Table 1 — time breakdown of SLIC and S-SLIC (CPU)", config);

  const SyntheticCorpus corpus(config.dataset_params(), config.images,
                               config.seed);

  PhaseTimer slic_phases;
  PhaseTimer sslic_phases;
  for (int i = 0; i < corpus.size(); ++i) {
    const GroundTruthImage gt = corpus.generate(i);

    SlicParams slic_params = config.slic_params();
    (void)CpaSlic(slic_params).segment(gt.image, {}, nullptr, &slic_phases);

    SlicParams sslic_params = config.slic_params();
    sslic_params.subsample_ratio = 0.5;
    // "the same number of full iterations": subset iterations doubled so
    // centers update twice as often (the Table-1 observation).
    sslic_params.max_iterations = config.iterations * 2;
    (void)PpaSlic(sslic_params).segment(gt.image, {}, nullptr, &sslic_phases);
  }

  struct PaperRow {
    const char* phase;
    std::vector<const char*> keys;  ///< PhaseTimer phases the row sums
    double slic_pct;
    double sslic_pct;
  };
  const PaperRow rows[] = {
      {"Color Conversion", {CpaSlic::kPhaseColorConversion}, 23.4, 18.7},
      {"Distance + Min", {CpaSlic::kPhaseDistanceMin}, 65.9, 59.7},
      {"Center Update", {CpaSlic::kPhaseCenterUpdate}, 10.2, 17.9},
      // The paper's "Other" is initialization plus connectivity.
      {"Other", {CpaSlic::kPhaseOther, CpaSlic::kPhaseConnectivity}, 0.5, 3.7},
  };
  const auto percent = [](const PhaseTimer& phases, const PaperRow& row) {
    double fraction = 0.0;
    for (const char* key : row.keys) fraction += phases.phase_fraction(key);
    return fraction * 100.0;
  };

  Table table("Phase breakdown (measured vs paper)");
  table.set_header({"phase", "SLIC %", "(paper)", "S-SLIC %", "(paper)"});
  for (const auto& row : rows) {
    table.add_row({row.phase, Table::num(percent(slic_phases, row), 1),
                   Table::num(row.slic_pct, 1),
                   Table::num(percent(sslic_phases, row), 1),
                   Table::num(row.sslic_pct, 1)});
  }
  table.add_note("mean over " + std::to_string(config.images) +
                 " images; S-SLIC = pixel-perspective, ratio 0.5, same "
                 "number of full iterations (2x subset iterations).");
  table.add_note("paper observations to check: distance+min dominates both; "
                 "center update roughly doubles for S-SLIC (centers update "
                 "more frequently); 'other' grows.");
  std::cout << table;

  std::cout << "\ntotal mean per-image time: SLIC "
            << Table::num(slic_phases.total_ms() / config.images, 1)
            << " ms, S-SLIC(0.5) "
            << Table::num(sslic_phases.total_ms() / config.images, 1)
            << " ms\n";
  return 0;
}
