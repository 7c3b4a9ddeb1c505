// Bridges segmenter-side state the ops server in src/common cannot reach
// (the fusion switch, the kernel table's resolved ISA) into /statusz.
#pragma once

namespace sslic::telemetry {

/// Registers the "slic" /statusz section on the ops server (fusion, the
/// SIMD backend the kernel table runs, global pool geometry). Idempotent;
/// the provider samples live state on every /statusz request.
void register_slic_statusz();

}  // namespace sslic::telemetry
