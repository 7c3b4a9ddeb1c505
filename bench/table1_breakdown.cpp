// Reproduces paper Table 1: per-phase time breakdown of SLIC and S-SLIC on
// the CPU (the paper profiled an i7-4600M on the Berkeley benchmark).
//
// Phases: color conversion / distance+min / center update / other
// (initialization + connectivity enforcement), read from the stage times
// each run leaves in its Instrumentation record.
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "slic/slic_baseline.h"
#include "slic/subsampled.h"

int main(int argc, char** argv) {
  using namespace sslic;
  bench::BenchConfig config = bench::BenchConfig::parse(argc, argv);
  bench::banner("Table 1 — time breakdown of SLIC and S-SLIC (CPU)", config);

  const SyntheticCorpus corpus(config.dataset_params(), config.images,
                               config.seed);

  // Stage times summed over the corpus.
  Instrumentation slic_total;
  Instrumentation sslic_total;
  const auto add_stages = [](Instrumentation& total, const Instrumentation& run) {
    total.convert_ms += run.convert_ms;
    total.init_ms += run.init_ms;
    total.assign_ms += run.assign_ms;
    total.update_ms += run.update_ms;
    total.connectivity_ms += run.connectivity_ms;
  };
  for (int i = 0; i < corpus.size(); ++i) {
    const GroundTruthImage gt = corpus.generate(i);
    Instrumentation run;

    SlicParams slic_params = config.slic_params();
    (void)CpaSlic(slic_params).segment(gt.image, {}, &run);
    add_stages(slic_total, run);

    SlicParams sslic_params = config.slic_params();
    sslic_params.subsample_ratio = 0.5;
    // "the same number of full iterations": subset iterations doubled so
    // centers update twice as often (the Table-1 observation).
    sslic_params.max_iterations = config.iterations * 2;
    (void)PpaSlic(sslic_params).segment(gt.image, {}, &run);
    add_stages(sslic_total, run);
  }

  using Stage = double Instrumentation::*;
  struct PaperRow {
    const char* phase;
    std::vector<Stage> stages;  ///< Instrumentation stage times the row sums
    double slic_pct;
    double sslic_pct;
  };
  const PaperRow rows[] = {
      {"Color Conversion", {&Instrumentation::convert_ms}, 23.4, 18.7},
      {"Distance + Min", {&Instrumentation::assign_ms}, 65.9, 59.7},
      {"Center Update", {&Instrumentation::update_ms}, 10.2, 17.9},
      // The paper's "Other" is initialization plus connectivity.
      {"Other", {&Instrumentation::init_ms, &Instrumentation::connectivity_ms},
       0.5, 3.7},
  };
  const auto percent = [](const Instrumentation& total, const PaperRow& row) {
    if (total.stages_ms() <= 0.0) return 0.0;
    double ms = 0.0;
    for (const Stage stage : row.stages) ms += total.*stage;
    return ms / total.stages_ms() * 100.0;
  };

  Table table("Phase breakdown (measured vs paper)");
  table.set_header({"phase", "SLIC %", "(paper)", "S-SLIC %", "(paper)"});
  for (const auto& row : rows) {
    table.add_row({row.phase, Table::num(percent(slic_total, row), 1),
                   Table::num(row.slic_pct, 1),
                   Table::num(percent(sslic_total, row), 1),
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
            << Table::num(slic_total.stages_ms() / config.images, 1)
            << " ms, S-SLIC(0.5) "
            << Table::num(sslic_total.stages_ms() / config.images, 1)
            << " ms\n";
  return 0;
}
