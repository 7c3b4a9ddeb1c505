#include "slic/telemetry_bridge.h"

#include <string>

#include "common/ops_server.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "slic/fusion.h"

namespace sslic::telemetry {

void export_instrumentation(const Instrumentation& instr,
                            const std::string& unit,
                            MetricsRegistry& registry) {
  const std::string prefix = "sslic." + unit;
  registry.counter(prefix + ".ops.distance_evals").set(instr.ops.distance_evals);
  registry.counter(prefix + ".ops.distance_ops").set(instr.ops.distance_ops());
  registry.counter(prefix + ".ops.compare").set(instr.ops.compare_ops);
  registry.counter(prefix + ".ops.accumulate").set(instr.ops.accumulate_ops);
  registry.counter(prefix + ".ops.divide").set(instr.ops.divide_ops);
  registry.counter(prefix + ".ops.total").set(instr.ops.total_ops());

  registry.counter(prefix + ".traffic.image_read").set(instr.traffic.image_read);
  registry.counter(prefix + ".traffic.label_read").set(instr.traffic.label_read);
  registry.counter(prefix + ".traffic.label_write").set(instr.traffic.label_write);
  registry.counter(prefix + ".traffic.distance_read")
      .set(instr.traffic.distance_read);
  registry.counter(prefix + ".traffic.distance_write")
      .set(instr.traffic.distance_write);
  registry.counter(prefix + ".traffic.candidate_read")
      .set(instr.traffic.candidate_read);
  registry.counter(prefix + ".traffic.center_read").set(instr.traffic.center_read);
  registry.counter(prefix + ".traffic.center_write")
      .set(instr.traffic.center_write);
  registry.counter(prefix + ".traffic.total").set(instr.traffic.total());

  registry.counter(prefix + ".iterations").set(instr.iterations);
  registry.counter(prefix + ".tiles_skipped").set(instr.tiles_skipped);
  registry.counter(prefix + ".fused").set(instr.fused ? 1 : 0);
}

void register_slic_statusz() {
  ops::register_statusz_section("slic", [] {
    std::string body = "{\"fusion\": ";
    body += fusion_enabled() ? "true" : "false";
    body += ", \"kernel_isa\": \"";
    body += simd::isa_name(simd::preferred_isa());
    body += "\", \"pool_threads\": ";
    body += std::to_string(ThreadPool::global().threads());
    body += "}";
    return body;
  });
}

}  // namespace sslic::telemetry
