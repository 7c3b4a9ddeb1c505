// Always-on flight recorder: a bounded, lock-free, per-thread ring of the
// most recent tracing spans plus periodically pre-serialized snapshots of
// the telemetry registry, kept warm so the last seconds of a process are
// reconstructable at any moment — through the ops server's `/tracez`
// endpoint while the process lives, and through a crash-dump JSON report
// when it dies.
//
// Relationship to common/trace.h: the flight recorder reuses the span call
// sites (SSLIC_TRACE_SCOPE and friends) as its instrumentation points and
// shares the trace session's storage (common/span_ring.h): one ring type and
// one per-thread table, whose entry holds a thread's trace ring and its
// flight ring, so a thread has one tid everywhere. Only the retention policy
// differs. A trace ring stops when full — exact history for offline
// profiling. A flight ring *wraps* — a sliding window of the most recent
// kFlightCapacity spans, for forensics. Recording is independent of trace
// arming: the flight bit of the shared recording mode is on by default
// (`SSLIC_FLIGHT=0` disables; `-DSSLIC_OPS=OFF` compiles the whole plane
// out), so `--trace` being off does not blind the recorder. A span is
// written to both rings when both are on.
//
// Concurrency: every slot field is a relaxed atomic; the writer publishes
// with a release store on the ring head, readers take an acquire load and
// walk the retained window. A reader racing a wrapping writer can observe a
// slot whose fields mix two events — acceptable for forensics, and
// race-free by construction (the TSan CI job covers concurrent
// record/serialize).
//
// Crash path: install_crash_handler() registers SIGSEGV/SIGABRT/SIGBUS/
// SIGFPE/SIGILL handlers (plus a std::terminate hook, so an uncaught
// ContractViolation from SSLIC_CHECK funnels through SIGABRT with its
// message preserved). The handler uses only async-signal-safe primitives:
// open/write/close, integer formatting into stack buffers, relaxed atomic
// loads from the rings, and a verbatim write of the latest *pre-serialized*
// registry snapshot (serialized ahead of time by snapshot_now(), which the
// ops server calls on a timer — never inside the handler, where the
// registry mutex and the allocator are off-limits).
#pragma once

#ifndef SSLIC_OPS_ENABLED
#define SSLIC_OPS_ENABLED 1
#endif

#include <cstddef>
#include <cstdint>
#include <string>

namespace sslic::ops {

/// True when the ops plane (flight recorder + introspection server) is
/// compiled in (SSLIC_OPS build option).
constexpr bool compiled() { return SSLIC_OPS_ENABLED != 0; }

/// Spans each thread's flight ring retains. The ring (80 KiB) is allocated
/// on the thread's first flight span.
inline constexpr std::size_t kFlightCapacity = 2048;

/// True while span sites feed the flight rings. Defaults to on
/// (`SSLIC_FLIGHT=0` in the environment disables at startup).
bool flight_enabled();

/// Toggles flight recording (flips the shared recording-mode bit that span
/// sites poll). Benches use this to A/B the always-on cost.
void set_flight_enabled(bool enabled);

/// Ring capacity in spans per recording thread: kFlightCapacity, or 0 when
/// the plane is compiled out.
std::size_t flight_capacity_per_thread();

/// Total spans recorded into flight rings since process start (wrapping
/// overwrites still count; this is the write total, not the retained count).
std::uint64_t flight_spans_recorded();

/// Number of flight rings in use (== threads that have recorded at least
/// one flight span).
std::size_t flight_threads();

/// Appends the retained spans of every ring as a complete Chrome
/// trace-event JSON document (the `/tracez` body — loadable in Perfetto).
void flight_serialize_chrome(std::string& out);

/// Test/ops helper: drops the retained spans (heads rewind to empty).
/// Concurrent recorders keep running; their next spans land normally.
void flight_reset();

/// Serializes the telemetry registry (plus a timestamp) into the
/// pre-serialized snapshot double-buffer the crash handler dumps verbatim.
/// Called by the ops server on its poll cadence and safe to call from any
/// thread (writers serialize on an internal mutex). Allocates — never call
/// from a signal handler.
void snapshot_now();

/// Snapshots taken since process start.
std::uint64_t snapshots_taken();

/// The most recent pre-serialized snapshot (empty before the first
/// snapshot_now()). For tests and /statusz debugging.
std::string latest_snapshot();

/// Liveness heartbeat: pipelines call this once per frame / unit of
/// progress; /healthz reports the age of the last beat and trips its
/// watchdog when the age exceeds the configured deadline.
void heartbeat();

/// Seconds since the last heartbeat(); +inf before the first beat.
double heartbeat_age_s();

/// Installs the crash handler writing a JSON report to `path` on a fatal
/// signal (and routes std::terminate through SIGABRT, preserving the
/// exception message). The path is copied into static storage (truncated
/// to ~500 bytes). Re-installing switches the path. Returns false when the
/// ops plane is compiled out. `SSLIC_CRASH_DUMP=<path>` in the environment
/// installs at startup for any binary.
bool install_crash_handler(const std::string& path);

/// True once install_crash_handler() succeeded.
bool crash_handler_installed();

/// The configured crash-dump path ("" when not installed).
const char* crash_dump_path();

/// Writes the same report the signal handler would write, to `fd`, from a
/// normal (non-signal) context. Exposed for tests; the signal handler calls
/// the identical code.
void write_crash_report_to_fd(int fd, int signal_number);

}  // namespace sslic::ops
