// Wide-event frame log: one structured record per completed frame, the
// request-scoped complement to the aggregate metrics registry. Where a
// histogram says *that* p99 moved, a wide event says *which stage* of one
// specific frame's journey (admission wait → queue → batch formation →
// segment → callback) spent the time, keyed by the same 64-bit frame trace
// id that spans (/tracez) and histogram exemplars (/metrics) carry — so a
// tail sample resolves to a full causal timeline in two lookups.
//
// Storage is a process-wide wrapping ring of kFramezCapacity POD records
// plus a fixed-slot per-(engine, stream) aggregation table, both static
// arrays: recording a frame allocates nothing, preserving the
// zero-allocation accounting of the video pipeline. Writers and readers
// share one mutex — recording happens once per *frame* (not per pixel or
// per span), so contention is negligible, and the lock keeps /framez
// serialization trivially race-free.
//
// The log is part of the telemetry layer, not the ops server: it is compiled
// and functional even in -DSSLIC_OPS=OFF builds (the `/framez` endpoint is
// merely one consumer; `--monitor` JSONL is another).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sslic::ops {

/// One completed frame's causal record. Stage durations are a contiguous
/// decomposition of the frame's end-to-end latency: each boundary is one
/// clock read, so the five stages sum to `e2e_ms` up to floating-point
/// rounding. The segmenter's own stages break `segment_ms` down further;
/// they are timed inside it and sum to at most `segment_ms`. `isa` points
/// at a static-storage name string (the recording layer never frees or
/// copies it).
struct WideFrameEvent {
  std::uint64_t trace_id = 0;   ///< frame context id (trace.h), never 0
  int engine_id = 0;            ///< StreamEngine instance, -1 = standalone
  std::uint64_t stream_id = 0;
  std::uint64_t sequence = 0;   ///< per-stream frame sequence number
  std::uint64_t completed_ns = 0;  ///< trace::now_ns() at completion

  // Stage decomposition (milliseconds, contiguous):
  double admit_wait_ms = 0.0;   ///< submit() entry -> slot admitted
  double queue_ms = 0.0;        ///< admitted -> scheduler starts its batch
  double batch_form_ms = 0.0;   ///< batch start -> this frame's segment begins
  double segment_ms = 0.0;      ///< color conversion + segmentation
  double callback_ms = 0.0;     ///< segment end -> completion published
  double e2e_ms = 0.0;          ///< sum of the above (= submit -> published)

  // Segmenter stages inside segment_ms (milliseconds, Instrumentation's
  // convert/init/assign/update/connectivity times; paper Table 1):
  double convert_ms = 0.0;       ///< sRGB -> Lab
  double init_ms = 0.0;          ///< seeding and buffer setup
  double assign_ms = 0.0;        ///< distance + min, all iterations
  double update_ms = 0.0;        ///< accumulation + center update
  double connectivity_ms = 0.0;  ///< connectivity enforcement

  // Segment-stage detail:
  std::uint32_t iterations = 0;
  const char* isa = "";         ///< SIMD backend that ran (static storage)
  bool warm = false;            ///< warm-started from the previous frame
  std::uint32_t batch_frames = 0;  ///< frames dispatched in the same batch

  // Connectivity quality signals (Instrumentation::final_label_count and
  // pixels_relabelled):
  std::uint32_t final_labels = 0;       ///< labels after connectivity
  std::uint64_t pixels_relabelled = 0;  ///< pixels connectivity moved
};

/// Appends `event` to the wide-event ring and folds it into the per-stream
/// aggregation. Thread-safe; allocates nothing.
void record_frame_event(const WideFrameEvent& event);

/// Total wide events ever recorded (ring overwrites still count).
std::uint64_t frame_events_recorded();

/// Wide events the ring retains.
inline constexpr std::size_t kFramezCapacity = 256;

/// Serializes `event` as one JSON object (no trailing newline) — the record
/// shape shared by /framez, the soak monitor, and tests.
void append_frame_event_json(std::string& out, const WideFrameEvent& event);

/// The `/framez` body: `{"capacity": N, "recorded": N, "recent": [...],
/// "streams": [{per-stream stage aggregates}, ...]}` with `recent` ordered
/// oldest to newest.
std::string framez_json();

/// Copies the retained events, oldest to newest (at most kFramezCapacity).
/// Allocates; meant for tests and exit summaries, not the frame hot path.
std::vector<WideFrameEvent> recent_frame_events();

/// Test helper: drops retained events and aggregates.
void framez_reset();

}  // namespace sslic::ops
