// Bridges the segmenters' Instrumentation records (ops + DRAM traffic,
// paper Table 2) into the telemetry metrics registry, so one flush_to()
// call exports timing, pool, and algorithm counters through the same
// TelemetrySink. Naming follows the `sslic.<unit>.<metric>` convention
// documented in common/telemetry.h.
#pragma once

#include <string>

#include "common/telemetry.h"
#include "slic/instrumentation.h"

namespace sslic::telemetry {

/// Publishes `instr` under `sslic.<unit>.ops.*` / `sslic.<unit>.traffic.*`
/// counters (plus `.iterations` and `.tiles_skipped`). Counters are set, not
/// accumulated: re-exporting after another run overwrites with the latest
/// totals.
void export_instrumentation(const Instrumentation& instr,
                            const std::string& unit,
                            MetricsRegistry& registry = MetricsRegistry::global());

/// Registers the "slic" /statusz section on the ops server (fusion,
/// dispatched SIMD kernel, global pool geometry) — the
/// ops server lives in src/common and cannot reach these itself. Idempotent;
/// the provider samples live state on every /statusz request.
void register_slic_statusz();

}  // namespace sslic::telemetry
