// Low-overhead scoped tracing spans serialized as Chrome trace-event JSON
// (loadable in Perfetto or chrome://tracing).
//
// Recording model: a span writes exactly one event at scope exit
// ({name, begin_ns, end_ns, arg, trace id}) into its own thread's trace
// ring, with no locks on the hot path. The rings live in the per-thread span
// table of common/span_ring.h, which the flight recorder shares (each
// thread's entry holds its trace ring and its flight ring), and are never
// freed, so a dump sees events from threads that have already exited. A
// trace ring holds the first kTraceCapacity spans since the last reset();
// later events from that thread are counted as dropped rather than
// wrapping. Slots are write-once, published with a release store on the
// ring head, and readers touch only slots below their acquire load of it.
//
// Arming: spans record only while the session is armed. `SSLIC_TRACE=<path>`
// in the environment arms at startup and dumps to <path> at process exit;
// examples and benches also expose `--trace=<path>`. A disarmed span costs
// one relaxed atomic load — no clock reads, no stores.
//
// Detail levels: `SSLIC_TRACE_SCOPE` records whenever armed. Finer spans
// (per tile/center, per SIMD kernel call) use `SSLIC_TRACE_SCOPE_AT(level,
// ...)` and record only when `SSLIC_TRACE_DETAIL` >= level, so the default
// armed trace stays cheap and small.
//
// Stage clock: trace::Interval always reads the clock and returns what it
// measured, so a segmenter stage records its span and adds its
// Instrumentation stage time from the same two clock reads.
//
// Compile-out: building with -DSSLIC_TRACING=OFF defines
// SSLIC_TRACING_ENABLED=0; the macros expand to nothing, Span and
// DetailSpan become empty types, Interval only times, and the session
// functions compile to stubs — the no-op path is covered by a CI job.
#pragma once

#ifndef SSLIC_TRACING_ENABLED
#define SSLIC_TRACING_ENABLED 1
#endif

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#if SSLIC_TRACING_ENABLED
#include <atomic>
#endif

namespace sslic::trace {

/// Sentinel for "span carries no argument".
inline constexpr std::int64_t kNoArg = INT64_MIN;

/// True when spans are compiled in (SSLIC_TRACING build option).
constexpr bool compiled() { return SSLIC_TRACING_ENABLED != 0; }

/// Spans each thread's trace ring keeps between resets. The ring (2.5 MiB)
/// is allocated on the thread's first span recorded while armed.
inline constexpr std::size_t kTraceCapacity = std::size_t{1} << 16;

// ---------------------------------------------------------------------------
// Frame contexts: a process-wide monotonic 64-bit trace id names one frame's
// journey through the pipeline. The id is minted once (engine submit(), or a
// standalone segmenter's per-frame scope), installed as a thread-local
// ambient value by the thread currently serving that frame, and picked up at
// record time by spans, flight-recorder events, and histogram exemplars —
// call sites never change. Ids are observational only: nothing in
// scheduling, admission, or kernel dispatch ever reads them, so output stays
// byte-identical with contexts on or off (DESIGN.md §4k). Id 0 means "no
// frame context". These helpers are compiled unconditionally — wide events
// and exemplars still work in -DSSLIC_TRACING=OFF builds.
// ---------------------------------------------------------------------------

/// Returns the next process-wide unique frame trace id (starts at 1, never
/// reused, never 0).
std::uint64_t mint_trace_id();

/// Ambient trace id of the frame the calling thread is currently serving
/// (0 when none).
std::uint64_t current_trace_id();

/// Installs `id` as the calling thread's ambient frame context. Prefer
/// FrameScope; this exists for code with non-lexical scope boundaries.
void set_current_trace_id(std::uint64_t id);

/// RAII ambient frame context: installs `id` for the calling thread and
/// restores the previous value on destruction (nesting-safe).
class FrameScope {
 public:
  explicit FrameScope(std::uint64_t id) : previous_(current_trace_id()) {
    set_current_trace_id(id);
  }
  ~FrameScope() { set_current_trace_id(previous_); }

  FrameScope(const FrameScope&) = delete;
  FrameScope& operator=(const FrameScope&) = delete;

 private:
  std::uint64_t previous_;
};

/// Monotonic nanoseconds since the process trace epoch.
std::uint64_t now_ns();

/// Arms the session and schedules a dump of the trace to `path` at process
/// exit (idempotent; the last path wins). A no-op stub when compiled out.
void arm(const std::string& path);

/// Disarms without dumping (cancels a pending exit dump).
void disarm();

/// True while spans record.
bool armed();

/// Raises/lowers recording without touching the exit-dump path — for tests
/// and benches that serialize explicitly.
void set_armed(bool armed);

/// Detail threshold for SSLIC_TRACE_SCOPE_AT (default 0; `SSLIC_TRACE_DETAIL`
/// env). Level 1 adds per-tile/per-center spans, level 2 per-kernel-call.
int detail_level();
void set_detail_level(int level);

/// Names the calling thread in the trace (Perfetto thread track label).
void set_thread_name(const std::string& name);

/// Raises/lowers the flight-recorder bit of the shared recording mode —
/// span sites poll one combined atomic, so the always-on flight recorder
/// (common/flight_recorder.h) costs nothing extra at disarmed sites. Called
/// by ops::set_flight_enabled(); not meant for direct use.
void set_flight_recording(bool enabled);

/// Writes the Chrome trace-event JSON for everything recorded so far.
/// Callers must ensure recording threads are quiescent (or disarm first).
void serialize(std::ostream& os);

/// serialize() to a file; returns false on I/O failure.
bool write_file(const std::string& path);

/// Discards all recorded events (rings stay registered). Quiescence
/// required, as with serialize().
void reset();

/// Events lost to full per-thread trace rings since the last reset().
std::uint64_t dropped_events();

#if SSLIC_TRACING_ENABLED

namespace detail {
/// Recording-mode bitmask polled by every span site: bit 0 = trace session
/// armed (stop-on-full trace rings), bit 1 = flight recorder enabled
/// (wrapping flight rings, common/flight_recorder.h). One relaxed load
/// covers both consumers, keeping the fully-disarmed span cost identical
/// to the original single-flag design.
inline constexpr unsigned kTraceBit = 1u;
inline constexpr unsigned kFlightBit = 2u;
extern std::atomic<unsigned> g_mode;
extern std::atomic<int> g_detail;
void record(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns,
            std::int64_t arg, unsigned mode);
}  // namespace detail

/// RAII span: one complete event from construction to destruction.
/// `name` must have static storage duration (only the pointer is stored).
class Span {
 public:
  explicit Span(const char* name, std::int64_t arg = kNoArg)
      : name_(name), arg_(arg),
        mode_(detail::g_mode.load(std::memory_order_relaxed)) {
    if (mode_ != 0) begin_ = now_ns();
  }
  ~Span() {
    if (mode_ != 0) detail::record(name_, begin_, now_ns(), arg_, mode_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::int64_t arg_;
  unsigned mode_;
  std::uint64_t begin_ = 0;
};

/// Span recorded only at or above a detail level (see detail_level()).
class DetailSpan {
 public:
  DetailSpan(int level, const char* name, std::int64_t arg = kNoArg)
      : name_(name), arg_(arg),
        mode_(detail::g_detail.load(std::memory_order_relaxed) >= level
                  ? detail::g_mode.load(std::memory_order_relaxed)
                  : 0u) {
    if (mode_ != 0) begin_ = now_ns();
  }
  ~DetailSpan() {
    if (mode_ != 0) detail::record(name_, begin_, now_ns(), arg_, mode_);
  }

  DetailSpan(const DetailSpan&) = delete;
  DetailSpan& operator=(const DetailSpan&) = delete;

 private:
  const char* name_;
  std::int64_t arg_;
  unsigned mode_;
  std::uint64_t begin_ = 0;
};

#else  // !SSLIC_TRACING_ENABLED — empty types, zero code at call sites

class Span {
 public:
  explicit Span(const char*, std::int64_t = kNoArg) {}
};
class DetailSpan {
 public:
  DetailSpan(int, const char*, std::int64_t = kNoArg) {}
};

#endif  // SSLIC_TRACING_ENABLED

/// Stage clock for back-to-back regions that straddle block boundaries:
/// complete() ends the region begun at construction (or at the previous
/// complete()), records it as a span when recording is on, returns its
/// length in milliseconds, and starts the next region at the same instant.
/// It reads the clock whether or not it records, also in
/// -DSSLIC_TRACING=OFF builds, so callers can add the result to a stage
/// time (Instrumentation::assign_ms and the like).
class Interval {
 public:
  Interval() : begin_(now_ns()) {}

  double complete(const char* name, std::int64_t arg = kNoArg) {
    const std::uint64_t end = now_ns();
#if SSLIC_TRACING_ENABLED
    const unsigned mode = detail::g_mode.load(std::memory_order_relaxed);
    if (mode != 0) detail::record(name, begin_, end, arg, mode);
#else
    static_cast<void>(name);
    static_cast<void>(arg);
#endif
    const double ms = static_cast<double>(end - begin_) / 1e6;
    begin_ = end;
    return ms;
  }

 private:
  std::uint64_t begin_;
};

}  // namespace sslic::trace

#define SSLIC_TRACE_CONCAT2(a, b) a##b
#define SSLIC_TRACE_CONCAT(a, b) SSLIC_TRACE_CONCAT2(a, b)

#if SSLIC_TRACING_ENABLED
#define SSLIC_TRACE_SCOPE(...) \
  ::sslic::trace::Span SSLIC_TRACE_CONCAT(sslic_trace_span_, __LINE__)(__VA_ARGS__)
#define SSLIC_TRACE_SCOPE_AT(level, ...)                               \
  ::sslic::trace::DetailSpan SSLIC_TRACE_CONCAT(sslic_trace_span_,     \
                                                __LINE__)(level, __VA_ARGS__)
#else
#define SSLIC_TRACE_SCOPE(...) static_cast<void>(0)
#define SSLIC_TRACE_SCOPE_AT(...) static_cast<void>(0)
#endif
