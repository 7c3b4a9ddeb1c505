// Shared infrastructure for the paper-reproduction bench harness.
//
// Every bench binary accepts:
//   --images=N   corpus size for CPU experiments (default kept small enough
//                for a quick full-harness run; raise to the paper's 100-200
//                for publication-grade statistics)
//   --width/--height/--superpixels/--compactness to override the workload.
// Each binary prints the paper's published values next to the measured ones
// so the reproduction can be eyeballed directly.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(_WIN32)
#else
#include <unistd.h>
#endif

#include "common/cli.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "dataset/synthetic.h"
#include "metrics/segmentation_metrics.h"
#include "slic/assign_kernels.h"
#include "slic/segmenter.h"

namespace sslic::bench {

/// Common workload configuration parsed from the command line.
struct BenchConfig {
  int images = 20;           ///< corpus size (paper: 100-200 BSDS images)
  int width = 481;           ///< BSDS image size
  int height = 321;
  int superpixels = 900;     ///< K for the quality experiments (Fig. 2)
  double compactness = 10.0;
  int iterations = 10;
  int annotators = 1;  ///< ground-truth annotations per image (BSDS has ~5)
  int threads = 0;     ///< worker threads; 0 = SSLIC_THREADS env or all cores
  std::uint64_t seed = 1000;

  /// Parses the common flags. As a side effect, `--threads=N` (or the
  /// `SSLIC_THREADS` environment variable when the flag is absent) resizes
  /// the global thread pool, `--simd=scalar|sse2|avx2|avx512|neon` (or the
  /// `SSLIC_SIMD` environment variable) selects the assignment-kernel ISA
  /// for the whole bench run, and `--trace=out.json` arms the tracing
  /// session (dumped at process exit; see common/trace.h).
  static BenchConfig parse(int argc, const char* const* argv) {
    const CliArgs args(argc, argv);
    BenchConfig config;
    config.images = args.get_int("images", config.images);
    config.width = args.get_int("width", config.width);
    config.height = args.get_int("height", config.height);
    config.superpixels = args.get_int("superpixels", config.superpixels);
    config.compactness = args.get_double("compactness", config.compactness);
    config.iterations = args.get_int("iterations", config.iterations);
    config.annotators = args.get_int("annotators", config.annotators);
    config.threads = args.get_int("threads", config.threads);
    config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1000));
    ThreadPool::set_global_threads(config.threads);
    config.threads = ThreadPool::global().threads();
    const std::string simd_request = args.get_string("simd", "");
    if (!simd_request.empty() && !simd::set_preferred_isa(simd_request)) {
      std::cerr << "unknown --simd value '" << simd_request
                << "' (expected scalar|sse2|avx2|avx512|neon)\n";
      std::exit(2);
    }
    const std::string trace_path = args.get_string("trace", "");
    if (!trace_path.empty()) {
      if (trace::compiled()) {
        trace::arm(trace_path);
      } else {
        std::cerr << "warning: --trace requested but this binary was built "
                     "with -DSSLIC_TRACING=OFF; no spans will be recorded\n";
      }
    }
    return config;
  }

  [[nodiscard]] SyntheticParams dataset_params() const {
    SyntheticParams p;
    p.width = width;
    p.height = height;
    return p;
  }

  [[nodiscard]] SlicParams slic_params() const {
    SlicParams p;
    p.num_superpixels = superpixels;
    p.compactness = compactness;
    p.max_iterations = iterations;
    return p;
  }
};

/// The CPU model string from /proc/cpuinfo ("unknown" when unavailable).
inline std::string cpu_model_name() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (line.rfind("model name", 0) == 0)
      return line.substr(line.find_first_not_of(" \t", colon + 1));
  }
  return "unknown";
}

/// First line of a small /proc or /sys file, "" when unreadable — the
/// best-effort probe behind the machine-fingerprint metadata.
inline std::string read_sys_line(const std::string& path) {
  std::ifstream file(path);
  std::string line;
  if (!std::getline(file, line)) return "";
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.pop_back();
  return line;
}

/// Kernel release string (uname -r), "unknown" when unavailable.
inline std::string kernel_release() {
  const std::string osrelease = read_sys_line("/proc/sys/kernel/osrelease");
  return osrelease.empty() ? "unknown" : osrelease;
}

/// CPU frequency-scaling hints from /sys, best effort: the governor and the
/// min/max scaling frequencies of cpu0. A bench run under the "powersave"
/// governor is not comparable to one under "performance" — the bench gate's
/// machine fingerprint records this so CI only compares like-for-like.
/// Fields are "" / 0 when the cpufreq sysfs tree is absent (containers,
/// VMs without frequency scaling exposed).
struct CpuFreqHints {
  std::string governor;
  long scaling_min_khz = 0;
  long scaling_max_khz = 0;
};

inline CpuFreqHints cpufreq_hints() {
  CpuFreqHints hints;
  const std::string base = "/sys/devices/system/cpu/cpu0/cpufreq/";
  hints.governor = read_sys_line(base + "scaling_governor");
  const std::string min_s = read_sys_line(base + "scaling_min_freq");
  const std::string max_s = read_sys_line(base + "scaling_max_freq");
  if (!min_s.empty()) hints.scaling_min_khz = std::atol(min_s.c_str());
  if (!max_s.empty()) hints.scaling_max_khz = std::atol(max_s.c_str());
  return hints;
}

/// The system page size in bytes (0 when unavailable).
inline long page_size_bytes() {
#if defined(_WIN32)
  return 0;
#else
  const long size = sysconf(_SC_PAGESIZE);
  return size > 0 ? size : 0;
#endif
}

/// Prints the standard bench banner.
inline void banner(const std::string& title, const BenchConfig& config) {
  std::cout << "==================================================================\n"
            << title << '\n'
            << "workload: " << config.images << " synthetic Berkeley-like images, "
            << config.width << 'x' << config.height << ", K=" << config.superpixels
            << ", m=" << config.compactness << ", threads=" << config.threads
            << ", simd=" << simd::isa_name(kernels::active_isa()) << '\n'
            << "(see DESIGN.md §1 for the BSDS substitution; --images=N to scale)\n"
            << "==================================================================\n";
}

/// Minimal JSON value tree for machine-readable bench artifacts
/// (BENCH_*.json). Supports exactly what the benches need: objects with
/// insertion-ordered keys, arrays, numbers, strings, and booleans.
class Json {
 public:
  static Json object() { return Json(Kind::kObject); }
  static Json array() { return Json(Kind::kArray); }
  Json(double v) : kind_(Kind::kNumber), number_(v) {}                // NOLINT
  Json(int v) : Json(static_cast<double>(v)) {}                      // NOLINT
  Json(std::int64_t v) : Json(static_cast<double>(v)) {}             // NOLINT
  Json(std::uint64_t v) : Json(static_cast<double>(v)) {}            // NOLINT
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}                     // NOLINT
  Json(std::string v) : kind_(Kind::kString), string_(std::move(v)) {}  // NOLINT
  Json(const char* v) : Json(std::string(v)) {}                      // NOLINT

  Json& set(const std::string& key, Json value) {
    members_.emplace_back(key, std::make_shared<Json>(std::move(value)));
    return *this;
  }
  Json& push(Json value) {
    elements_.push_back(std::make_shared<Json>(std::move(value)));
    return *this;
  }

  void dump(std::ostream& out, int indent = 0) const {
    const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
    const std::string pad_in(static_cast<std::size_t>(indent + 1) * 2, ' ');
    switch (kind_) {
      case Kind::kObject: {
        out << "{";
        for (std::size_t i = 0; i < members_.size(); ++i) {
          out << (i == 0 ? "\n" : ",\n") << pad_in << '"'
              << escaped(members_[i].first) << "\": ";
          members_[i].second->dump(out, indent + 1);
        }
        out << (members_.empty() ? "" : "\n" + pad) << "}";
        break;
      }
      case Kind::kArray: {
        out << "[";
        for (std::size_t i = 0; i < elements_.size(); ++i) {
          out << (i == 0 ? "\n" : ",\n") << pad_in;
          elements_[i]->dump(out, indent + 1);
        }
        out << (elements_.empty() ? "" : "\n" + pad) << "]";
        break;
      }
      case Kind::kNumber: {
        std::ostringstream s;
        s.precision(12);
        s << number_;
        out << s.str();
        break;
      }
      case Kind::kString:
        out << '"' << escaped(string_) << '"';
        break;
      case Kind::kBool:
        out << (bool_ ? "true" : "false");
        break;
    }
  }

  /// Writes the tree to `path`; reports the artifact on stdout.
  void write_file(const std::string& path) const {
    std::ofstream out(path);
    dump(out);
    out << '\n';
    std::cout << "wrote " << path << '\n';
  }

 private:
  enum class Kind { kObject, kArray, kNumber, kString, kBool };
  explicit Json(Kind kind) : kind_(kind) {}

  static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        case '\n':
          out += "\\n";
          break;
        case '\t':
          out += "\\t";
          break;
        case '\r':
          out += "\\r";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            out += buf;
          } else {
            out.push_back(c);
          }
      }
    }
    return out;
  }

  Kind kind_ = Kind::kObject;
  double number_ = 0.0;
  std::string string_;
  bool bool_ = false;
  std::vector<std::pair<std::string, std::shared_ptr<Json>>> members_;
  std::vector<std::shared_ptr<Json>> elements_;
};

/// Standard machine-description block for BENCH_*.json artifacts: CPU
/// model, hardware thread count, the assignment-kernel ISA actually
/// selected (after env/flag override and CPU/binary clamping), plus the
/// fingerprint metadata the bench gate matches on: kernel release, page
/// size, and frequency-scaling hints.
inline Json machine_json() {
  Json backends = Json::array();
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kSse2,
                              simd::Isa::kAvx2, simd::Isa::kAvx512,
                              simd::Isa::kNeon}) {
    if (kernels::backend_compiled(isa) && simd::cpu_supports(isa))
      backends.push(simd::isa_name(isa));
  }
  const CpuFreqHints freq = cpufreq_hints();
  return Json::object()
      .set("cpu_model", cpu_model_name())
      .set("hardware_threads",
           static_cast<int>(std::thread::hardware_concurrency()))
      .set("simd_isa_selected", simd::isa_name(kernels::active_isa()))
      .set("simd_isas_available", std::move(backends))
      .set("kernel_release", kernel_release())
      .set("page_size_bytes", static_cast<std::int64_t>(page_size_bytes()))
      .set("cpufreq_governor",
           freq.governor.empty() ? "unknown" : freq.governor)
      .set("cpufreq_min_khz", static_cast<std::int64_t>(freq.scaling_min_khz))
      .set("cpufreq_max_khz", static_cast<std::int64_t>(freq.scaling_max_khz));
}

/// Builder for the normalized "gate" section of a BENCH_*.json artifact —
/// the part tools/bench_gate/bench_gate.py compares against the checked-in
/// baselines. Each metric carries its own unit, direction, and relative
/// noise tolerance so the gate needs no out-of-band threshold table:
///
///   "gate": {
///     "schema_version": 1,
///     "metrics": {
///       "fused_ms_per_image": {
///         "value": 12.3, "unit": "ms",
///         "direction": "lower_is_better", "tolerance": 0.10
///       }, ...
///     }
///   }
///
/// The machine fingerprint the gate matches lives in the artifact's
/// top-level "machine" block (machine_json() above).
class GateMetrics {
 public:
  static constexpr int kSchemaVersion = 1;

  GateMetrics& lower_is_better(const std::string& name, double value,
                               const std::string& unit, double tolerance) {
    return add(name, value, unit, "lower_is_better", tolerance);
  }
  GateMetrics& higher_is_better(const std::string& name, double value,
                                const std::string& unit, double tolerance) {
    return add(name, value, unit, "higher_is_better", tolerance);
  }

  [[nodiscard]] Json json() const {
    Json metrics = Json::object();
    for (const Entry& e : entries_) {
      metrics.set(e.name, Json::object()
                              .set("value", e.value)
                              .set("unit", e.unit)
                              .set("direction", e.direction)
                              .set("tolerance", e.tolerance));
    }
    return Json::object()
        .set("schema_version", kSchemaVersion)
        .set("metrics", std::move(metrics));
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string direction;
    double tolerance;
  };

  GateMetrics& add(const std::string& name, double value,
                   const std::string& unit, const std::string& direction,
                   double tolerance) {
    entries_.push_back({name, value, unit, direction, tolerance});
    return *this;
  }

  std::vector<Entry> entries_;
};

/// Per-phase roofline summary rows shared by the benches: analytic
/// arithmetic intensity, op and byte counts. `elapsed_ms` is the wall time
/// the analytic bytes/ops were accumulated over, so achieved GB/s and GOP/s
/// can be derived.
inline Json roofline_json(double analytic_ops, double analytic_bytes,
                          double elapsed_ms) {
  const double seconds = elapsed_ms / 1e3;
  Json row = Json::object();
  row.set("analytic_ops", analytic_ops)
      .set("analytic_bytes", analytic_bytes)
      .set("arithmetic_intensity_ops_per_byte",
           analytic_bytes > 0.0 ? analytic_ops / analytic_bytes : 0.0)
      .set("elapsed_ms", elapsed_ms)
      .set("analytic_gops_per_s",
           seconds > 0.0 ? analytic_ops / seconds / 1e9 : 0.0)
      .set("analytic_gb_per_s",
           seconds > 0.0 ? analytic_bytes / seconds / 1e9 : 0.0);
  return row;
}

/// Quality metrics of one segmentation against ground truth.
struct Quality {
  double use = 0.0;       ///< Achanta undersegmentation error
  double use_min = 0.0;   ///< Neubert min-variant
  double recall = 0.0;    ///< boundary recall, tolerance 2
  double asa = 0.0;

  Quality& operator+=(const Quality& other) {
    use += other.use;
    use_min += other.use_min;
    recall += other.recall;
    asa += other.asa;
    return *this;
  }
  Quality& operator/=(double n) {
    use /= n;
    use_min /= n;
    recall /= n;
    asa /= n;
    return *this;
  }
};

inline Quality measure_quality(const LabelImage& labels, const LabelImage& truth) {
  const OverlapTable table(labels, truth);
  Quality q;
  q.use = undersegmentation_error(table);
  q.use_min = undersegmentation_error_min(table);
  q.recall = boundary_recall(labels, truth, 2);
  q.asa = achievable_segmentation_accuracy(table);
  return q;
}

/// Quality averaged over several annotators (the BSDS protocol).
inline Quality measure_quality(const LabelImage& labels,
                               const std::vector<LabelImage>& truths) {
  const MultiGroundTruthQuality m = evaluate_against_annotators(labels, truths, 2);
  Quality q;
  q.use = m.use_mean;
  q.use_min = m.use_min_mean;
  q.recall = m.recall_mean;
  q.asa = m.asa_mean;
  return q;
}

/// One point of a quality-versus-time curve (Fig. 2 axes).
struct CurvePoint {
  double time_ms = 0.0;  ///< cumulative iteration wall time (mean per image)
  Quality quality;
  std::size_t pixels_visited = 0;  ///< cumulative, mean per image
};

}  // namespace sslic::bench
