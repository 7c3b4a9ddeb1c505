#include "slic/telemetry_bridge.h"

#include <string>

#include "common/ops_server.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "slic/assign_kernels.h"

namespace sslic::telemetry {

void register_slic_statusz() {
  ops::register_statusz_section("slic", [] {
    std::string body = "{\"kernel_isa\": \"";
    body += simd::isa_name(kernels::active_isa());
    body += "\", \"pool_threads\": ";
    body += std::to_string(ThreadPool::global().threads());
    body += "}";
    return body;
  });
}

}  // namespace sslic::telemetry
