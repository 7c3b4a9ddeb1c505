// perfbench: one run of one frame-path workload (README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--setup-out FILE]      untraced run: write the cold-start case
//   perfbench --workload NAME --setup-child FILE
//                                     one cold start; prints "setup_s=<s>"
//
// A run prints diagnostics, then its result as one JSON line: the
// end-to-end metrics (except setup_s, which run.py adds from separate
// cold-start processes) with --trace 0, the per-layer metrics with
// --trace 1.
#include <sys/utsname.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "slic/assign_kernels.h"
#include "slic/grid.h"
#if __has_include("slic/assign_strategy.h")
#include "slic/assign_strategy.h"
#endif
#if __has_include("slic/fusion.h")
#include "slic/fusion.h"
#endif

namespace {

using namespace perfbench;

volatile std::uint64_t probe_sink = 0;

/// Fixed host-speed probe: a dependent xorshift chain of 2^27 steps. Its
/// time drifts with the host, not with the code under test.
double host_probe_ms(std::uint64_t seed) {
  const double begin = now_ms();
  std::uint64_t x = seed | 1u;
  for (std::uint32_t i = 0; i < (1u << 27); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  probe_sink = x;
  return now_ms() - begin;
}

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf)
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand.erase(brand.find_last_not_of(std::string(" \0", 2)) + 1);
    brand.erase(0, brand.find_first_not_of(' '));
    return brand;
  }
#endif
  return "unknown";
}

void print_fingerprint(const WorkloadSpec& spec) {
  utsname host{};
  uname(&host);
  std::printf("machine: %s; %u hardware threads; %s %s; compiler %s\n",
              cpu_brand().c_str(), std::thread::hardware_concurrency(),
              host.sysname, host.release, __VERSION__);
  const sslic::simd::Isa isa = sslic::kernels::active_isa();
  std::printf("dispatch: pool %d threads, isa %s", sslic::ThreadPool::global().threads(),
              sslic::simd::isa_name(isa));
#if __has_include("slic/assign_strategy.h")
  const sslic::CenterGrid grid(spec.width, spec.height, spec.superpixels);
  std::printf(", assign %s",
              sslic::assign_strategy_name(sslic::resolve_assign_strategy(
                  isa, grid.num_centers(), spec.width, spec.height)));
#endif
#if __has_include("slic/fusion.h")
  std::printf(", fused iteration %s", sslic::fusion_enabled() ? "on" : "off");
#endif
  std::printf("\n");
}

std::string json_number(double value) {
  char buffer[64];
  const auto end = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, end.ptr);
}

void print_json(const RunResult& result) {
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    line += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload live540|fleet360|stills1080 "
               "--seed N --seconds S --trace 0|1 [--setup-out FILE]\n"
               "       perfbench --workload NAME --setup-child FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string setup_out;
  std::string setup_child;
  std::uint64_t seed = 1;
  double seconds = 25.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") workload = value;
    else if (key == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") seconds = std::strtod(value, nullptr);
    else if (key == "--trace") trace = std::atoi(value);
    else if (key == "--setup-out") setup_out = value;
    else if (key == "--setup-child") setup_child = value;
    else return usage();
  }
  const WorkloadSpec* spec = find_workload(workload);
  if (spec == nullptr || argc % 2 == 0 || !(seconds > 0.0) ||
      (trace != 0 && trace != 1))
    return usage();

  if (!setup_child.empty()) {
    SetupCase setup;
    if (!read_setup_case(setup_child, &setup) || setup.workload != spec->name) {
      std::fprintf(stderr, "perfbench: unreadable setup case %s\n",
                   setup_child.c_str());
      return 2;
    }
    const double setup_s = cold_start(*spec, setup);
    if (setup_s < 0.0) {
      std::printf("setup_s=mismatch\n");
      return 3;
    }
    std::printf("setup_s=%s\n", json_number(setup_s).c_str());
    return 0;
  }

  const double probe_before_ms = host_probe_ms(seed);
  sslic::ThreadPool::set_global_threads(kPoolThreads);
  print_fingerprint(*spec);
  const double generate_begin = now_ms();
  const Inputs inputs = make_inputs(*spec, seed);
  std::printf("inputs: seed %llu, %zu scenes generated in %.0f ms\n",
              static_cast<unsigned long long>(seed), inputs.truths.size(),
              now_ms() - generate_begin);
  std::fflush(stdout);

  RunResult result;
  if (spec->streams > 0) {
    result = trace != 0 ? trace_streams(*spec, inputs, seconds)
                        : run_streams(*spec, inputs, seconds, setup_out);
  } else {
    result = trace != 0 ? trace_stills(*spec, inputs, seconds)
                        : run_stills(*spec, inputs, seconds, setup_out);
  }
  for (Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::printf("metric %s is not finite\n", m.name.c_str());
      m.value = 0.0;
      result.correct = false;
    }
  }
  std::printf("host probe: %.1f ms before, %.1f ms after (fixed integer loop; "
              "not gated)\n",
              probe_before_ms, host_probe_ms(seed));
  print_json(result);
  return 0;
}
