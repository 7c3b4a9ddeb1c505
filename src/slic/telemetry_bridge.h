// Bridges segmenter-side state the ops server in src/common cannot reach
// (the kernel table's resolved ISA, the pool size) into /statusz.
#pragma once

namespace sslic::telemetry {

/// Registers the "slic" /statusz section on the ops server (the SIMD
/// backend the kernel table runs, global pool geometry). Idempotent;
/// the provider samples live state on every /statusz request.
void register_slic_statusz();

}  // namespace sslic::telemetry
