// Multi-stream segmentation engine: an in-process service that serves N
// concurrent video streams from one shared thread pool (DESIGN.md §4j).
//
// Each PPA stream owns a TemporalSlic and feeds it every frame, so the
// warm-start policy lives in that one class and a stream's label output is
// byte-identical to an independent sequential TemporalSlic run over the
// same frames. A CPA stream owns a CpaSlic plus its Lab buffer, result, and
// IterationScratch, and runs every frame cold. A dedicated scheduler thread
// forms *cross-stream batches* (at most one frame per stream per batch, so
// each stream stays strictly in submission order) and dispatches each
// batch across the one global ThreadPool with frames as the pool chunks:
// each frame's inner segmenter sees ThreadPool::in_parallel_region() and
// takes the serial code path, which the determinism contract makes
// bit-identical to every parallel path.
//
// Admission control: every stream has a bounded queue (queue_limit slots)
// and the engine an optional global bound. A full queue is resolved by the
// stream's AdmissionPolicy — kBlock (backpressure: submit() waits for
// space), kShed (reject the new frame, bump the shed counter), or
// kDropOldest (evict the oldest *queued* frame — never the one in flight —
// to admit the new one). Shed and dropped frames are counted per stream
// and per engine, and drops are reported synchronously through the
// stream's completion callback with `dropped = true`.
//
// Zero-allocation steady state: all admission slots, batch scratch, and
// per-stream working buffers are grow-only and sized on first use, so a
// steady-state engine — same streams, same geometries — runs with zero
// heap allocations per frame across *all* active streams
// (tests/test_engine.cpp and bench/stream_engine.cpp assert this with a
// counting operator new). Stream open/close may allocate and free.
//
// Ops plane: per-stream latency/queue-wait histograms and depth gauges,
// engine-level queued/inflight gauges and shed/drop counters (all names
// keyed by a per-process engine instance id, so two engines never alias),
// a /statusz "engine" section listing every live engine, and an
// ops::heartbeat() per scheduler cycle so /healthz covers the engine.
//
// Per-frame causal observability (DESIGN.md §4k): submit() mints a
// FrameContext whose 64-bit trace id rides the slot ring, the scheduler
// batch, and the worker's ambient frame scope, tagging every span, flight
// event, and latency-histogram exemplar with the frame that produced it.
// Each completed frame additionally emits one wide event (common/
// frame_log.h, served at /framez) decomposing its end-to-end latency into
// admit-wait / queue / batch-formation / segment / callback stages, and
// streams with an SLO target feed error-budget burn-rate gauges
// (common/slo.h) surfaced through /healthz as degraded-but-200.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/frame_log.h"
#include "common/slo.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "slic/instrumentation.h"
#include "slic/iteration_scratch.h"
#include "slic/slic_baseline.h"
#include "slic/temporal.h"
#include "slic/types.h"

namespace sslic::engine {

/// What happens when a frame arrives and its stream queue (or the engine's
/// global bound) is full.
enum class AdmissionPolicy {
  kBlock = 0,      ///< backpressure: submit() blocks until space frees up
  kShed = 1,       ///< reject the new frame (caller sees SubmitStatus::kShed)
  kDropOldest = 2, ///< evict the oldest queued frame to admit the new one
};

/// Parses "block" / "shed" / "drop-oldest" (also accepts "drop").
[[nodiscard]] bool parse_admission_policy(const std::string& text,
                                          AdmissionPolicy* policy);
[[nodiscard]] const char* admission_policy_name(AdmissionPolicy policy);

using StreamId = std::uint64_t;

/// Handle of one admitted frame; sequences are per-stream and start at 1.
struct FrameTicket {
  StreamId stream = 0;
  std::uint64_t sequence = 0;
};

/// Request-scoped identity of one frame, minted at submit(): the 64-bit
/// trace id (trace::mint_trace_id) is installed as the ambient frame
/// context by whichever thread serves the frame, so every tracing span,
/// flight-recorder event, and histogram exemplar the frame produces carries
/// the same id — and the frame's wide event (/framez) joins them into one
/// causal timeline. Ids are purely observational: nothing in admission,
/// batch formation, or kernel dispatch ever reads them, so segmentation
/// output is byte-identical with or without observers (DESIGN.md §4k).
struct FrameContext {
  StreamId stream = 0;
  std::uint64_t sequence = 0;
  std::uint64_t trace_id = 0;
};

enum class SubmitStatus {
  kAdmitted = 0,  ///< frame queued; ticket is valid
  kShed = 1,      ///< rejected by admission control (or stream closing)
};

struct SubmitResult {
  SubmitStatus status = SubmitStatus::kShed;
  FrameTicket ticket;  ///< valid only when status == kAdmitted
  /// Frame context of the admitted frame (trace_id 0 when shed) — what the
  /// caller greps for in /tracez, /framez, and exemplar suffixes.
  FrameContext context;
  /// kDropOldest only: the sequence evicted to admit this frame (0 if the
  /// admission needed no eviction).
  std::uint64_t dropped_sequence = 0;
};

enum class WaitStatus {
  kCompleted = 0,
  kDropped = 1,  ///< evicted by kDropOldest before it was segmented
  kInvalid = 2,  ///< unknown stream or a sequence never admitted
};

/// Completion record handed to the stream callback (and describing the
/// state readable via last_result()). `segmentation` points at per-stream
/// storage that stays valid until the engine *starts segmenting* the
/// stream's next frame; copy it in the callback if you need it longer.
struct FrameResult {
  FrameTicket ticket;
  FrameContext context;  ///< trace_id 0 only for drops of pre-context frames
  bool dropped = false;  ///< true: evicted, segmentation is null
  const Segmentation* segmentation = nullptr;
  const Instrumentation* instrumentation = nullptr;
  double latency_ms = 0.0;  ///< submit -> completion (queue + segment)
  double queue_ms = 0.0;    ///< submit -> segmentation start
};

/// Invoked on the scheduler thread for completions (before any later frame
/// of the same stream starts) and on the submitting thread for drops. Must
/// not call back into the engine for the same stream's submit/wait.
using CompletionFn = std::function<void(const FrameResult&)>;

/// Which segmenter serves a stream's frames.
enum class StreamAlgorithm {
  kCpa = 0,  ///< center-perspective baseline, cold per frame
  kPpa = 1,  ///< pixel-perspective S-SLIC (temporal warm start supported)
};

struct StreamOptions {
  SlicParams params;
  StreamAlgorithm algorithm = StreamAlgorithm::kPpa;
  /// Warm-start each frame from the previous frame's centers (PPA only —
  /// the TemporalSlic contract). Frame 1, a geometry change, or
  /// reset_stream() falls back to cold grid seeding.
  bool temporal_warm = true;
  /// Iteration budget for warm frames; 0 picks the TemporalSlic default
  /// (half the cold budget, at least one full subset round-robin).
  /// open_stream() rejects a negative value (PPA streams).
  int warm_iterations = 0;
  /// Bounded admission queue depth (>= 1), the frame in flight included.
  std::size_t queue_limit = 4;
  AdmissionPolicy policy = AdmissionPolicy::kBlock;
  /// Optional completion/drop callback (see CompletionFn).
  CompletionFn on_complete;
  /// Per-stream latency objective: end-to-end latencies above this target
  /// count against the stream's error budget, feeding the
  /// `sslic.slo.engine.<id>.stream.<sid>.*` burn-rate gauges and the
  /// /healthz degraded-but-200 signal (common/slo.h). 0 disables.
  double slo_target_ms = 0.0;
  /// Required fraction of frames meeting the target (SloTracker clamps to
  /// [0.5, 0.9999]).
  double slo_objective = 0.99;
};

struct EngineOptions {
  /// Cap on frames queued across all streams; 0 = only per-stream bounds.
  std::size_t global_queue_limit = 0;
  /// Tick ops::heartbeat() every scheduler cycle (~1 Hz when idle) so
  /// /healthz covers the engine. Disable when another component owns the
  /// process heartbeat (e.g. video_pipeline beats per frame).
  bool heartbeat = true;
};

/// Point-in-time view of one stream (telemetry snapshot, not synchronized
/// with concurrent submits).
struct StreamStats {
  std::uint64_t submitted = 0;  ///< admitted frames
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t dropped = 0;
  std::size_t queued = 0;  ///< occupied queue slots (in-flight included)
  bool in_flight = false;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_mean_ms = 0.0;
};

struct EngineStats {
  std::size_t streams = 0;
  std::size_t queued = 0;
  std::uint64_t batches = 0;
  std::uint64_t frames = 0;  ///< completed across all streams
  std::uint64_t shed = 0;
  std::uint64_t dropped = 0;
};

/// The in-process multi-stream segmentation service. Thread-safe: any
/// thread may open/close streams, submit frames, and wait on tickets.
class StreamEngine {
 public:
  explicit StreamEngine(const EngineOptions& options = {});
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Opens a stream and allocates its queue slots + warm state. May
  /// allocate freely (open is not steady state). Throws ContractViolation
  /// on invalid options (including a negative PPA warm_iterations).
  [[nodiscard]] StreamId open_stream(StreamOptions options);

  /// Drains the stream's queued frames (completions still fire), then
  /// reclaims all its state. Blocks until the drain finishes. Safe to call
  /// while producers are blocked in submit() on this stream — they are
  /// woken and see their frame shed.
  void close_stream(StreamId id);

  /// Submits one frame. The pixels are copied into a queue slot (no
  /// allocation at steady geometry); the caller keeps ownership of
  /// `frame`. See AdmissionPolicy for the full-queue behavior.
  SubmitResult submit(StreamId id, const RgbImage& frame);

  /// Blocks until `ticket`'s frame completes or is dropped.
  WaitStatus wait(const FrameTicket& ticket);

  /// Blocks until every queue is empty and no frame is in flight.
  void drain();

  /// The last completed segmentation of `id` — valid until the engine
  /// starts the stream's next frame (so: stable after wait() only when no
  /// further frames are queued; pipelined consumers should use the
  /// completion callback instead). Null before the first completion.
  [[nodiscard]] const Segmentation* last_result(StreamId id) const;

  /// Scene cut: the first frame submitted after the call cold-starts, even
  /// while frames submitted before it are still queued (those stay warm).
  /// If drop-oldest evicts that frame, the next admitted frame carries the
  /// cut instead.
  void reset_stream(StreamId id);

  /// Scheduler gate for deterministic tests: while paused, admitted frames
  /// accumulate in the queues (policies still apply) but no batch forms.
  void pause();
  void resume();

  [[nodiscard]] StreamStats stream_stats(StreamId id) const;
  [[nodiscard]] EngineStats stats() const;

  /// Process-unique id keying this engine's telemetry names
  /// (`sslic.engine.<id>....`) and its /statusz entry.
  [[nodiscard]] int instance_id() const { return instance_id_; }
  [[nodiscard]] const EngineOptions& options() const { return options_; }

 private:
  struct Slot {
    RgbImage frame;    ///< admitted pixels (grow-only storage)
    std::uint64_t sequence = 0;
    std::uint64_t trace_id = 0;  ///< frame context minted at submit()
    double enter_ms = 0.0;   ///< submit() entry (admit wait = submit - enter)
    double submit_ms = 0.0;  ///< engine-clock timestamp of admission
    bool ready = false;      ///< pixels fully copied in
    /// First frame admitted after reset_stream(): cold-start it. Never
    /// written while the slot is in flight (drop-oldest hands the cut only
    /// to frames queued behind the evicted one).
    bool scene_cut = false;
  };

  struct Stream {
    StreamId id = 0;
    StreamOptions opts;
    bool closing = false;

    // Bounded admission queue: a ring of slot indices (fifo) plus a free
    // stack, both capacity queue_limit, so mid-queue eviction (kDropOldest)
    // is an index shuffle — no allocation, no pixel copies.
    std::vector<Slot> slots;
    std::vector<std::uint32_t> fifo;
    std::vector<std::uint32_t> free_slots;
    std::size_t fifo_head = 0;
    std::size_t fifo_count = 0;
    bool in_flight = false;  ///< fifo front is inside the current batch
    /// All slot pixel buffers were capacity-sized at the first admission,
    /// so deeper queue depths reached later stay allocation-free.
    bool slots_presized = false;
    /// Completion callbacks staged but not yet invoked; close_stream() and
    /// drain() wait for 0 (the callback reads per-stream state).
    std::size_t callbacks_inflight = 0;

    std::uint64_t next_sequence = 1;
    std::uint64_t completed_sequence = 0;  ///< highest segmented sequence
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t dropped = 0;
    /// Ring of recently evicted sequences backing wait() classification.
    std::vector<std::uint64_t> dropped_ring;
    std::size_t dropped_ring_next = 0;

    /// reset_stream() was called and no frame has been admitted since; the
    /// next admission takes the cut (Slot::scene_cut).
    bool reset_pending = false;

    // Per-stream segmentation state: a TemporalSlic (PPA) or a CpaSlic with
    // its working buffers (CPA).
    std::optional<TemporalSlic> temporal;
    std::optional<CpaSlic> cpa;
    LabImage lab;
    Segmentation result;
    IterationScratch scratch;
    Instrumentation instr;
    /// Latest completed segmentation (null before the first completion).
    const Segmentation* last = nullptr;

    // Telemetry, resolved at open (registry lookups allocate).
    telemetry::Histogram* latency_ms = nullptr;
    telemetry::Histogram* queue_ms = nullptr;
    telemetry::Gauge* depth_gauge = nullptr;
    telemetry::Counter* completed_counter = nullptr;
    telemetry::Counter* shed_counter = nullptr;
    telemetry::Counter* dropped_counter = nullptr;
    /// Latency SLO tracker (null unless opts.slo_target_ms > 0).
    std::unique_ptr<ops::SloTracker> slo;
  };

  struct BatchEntry {
    Stream* stream = nullptr;
    Slot* slot = nullptr;
    double start_ms = 0.0;      ///< dispatch begin (FrameResult::queue_ms)
    double form_ms = 0.0;       ///< batch formation begin (wide-event stage)
    double seg_begin_ms = 0.0;  ///< written by the worker in process_frame
    double seg_end_ms = 0.0;    ///< ditto (pool join orders it before reads)
    const Segmentation* segmentation = nullptr;  ///< ditto
  };

  /// Callback invocation staged while the engine lock is held, run after
  /// it is released (callbacks may submit). `stream` pins the owner via
  /// its callbacks_inflight count — never null while staged.
  struct PendingCallback {
    Stream* stream = nullptr;
    const CompletionFn* fn = nullptr;
    FrameResult result;
    std::size_t draft_index = 0;  ///< wide-event draft to stamp post-callback
  };

  /// Wide event under construction: everything stream-dependent is captured
  /// during bookkeeping (under the lock, while the stream is pinned); the
  /// callback stage and end-to-end total are stamped after the callbacks
  /// run, then the event is emitted to the frame log.
  struct FrameEventDraft {
    ops::WideFrameEvent event;
    double enter_ms = 0.0;
    double seg_end_ms = 0.0;
    double end_ms = 0.0;
  };

  void scheduler_loop();
  void process_frame(BatchEntry& entry);
  [[nodiscard]] Stream* find_stream(StreamId id) const;
  /// Evicts the oldest droppable queued frame of `stream` (never the one
  /// in flight or a slot still filling); returns the evicted sequence or 0
  /// and, via `trace_id`, the evicted frame's context id.
  std::uint64_t drop_oldest_locked(Stream& stream,
                                   std::uint64_t* trace_id = nullptr);
  [[nodiscard]] bool sequence_recently_dropped(const Stream& stream,
                                               std::uint64_t sequence) const;
  void publish_depth_locked(Stream& stream);

  EngineOptions options_;
  const int instance_id_;
  Stopwatch clock_;

  mutable std::mutex mutex_;
  std::condition_variable scheduler_cv_;  ///< work available / stop / resume
  std::condition_variable space_cv_;      ///< queue space freed (kBlock)
  std::condition_variable done_cv_;       ///< completions / drains / closes
  bool stop_ = false;
  bool paused_ = false;
  std::vector<std::unique_ptr<Stream>> streams_;
  StreamId next_stream_id_ = 1;
  std::size_t round_robin_cursor_ = 0;  ///< batch-former fairness cursor
  std::size_t global_queued_ = 0;

  // Scheduler-thread scratch, grow-only (zero-alloc steady state).
  std::vector<BatchEntry> batch_;
  std::vector<PendingCallback> callbacks_;
  std::vector<FrameEventDraft> drafts_;

  // Engine-level telemetry, resolved at construction.
  telemetry::Counter* batches_counter_ = nullptr;
  telemetry::Counter* frames_counter_ = nullptr;
  telemetry::Counter* shed_counter_ = nullptr;
  telemetry::Counter* dropped_counter_ = nullptr;
  telemetry::Gauge* queued_gauge_ = nullptr;
  telemetry::Gauge* inflight_gauge_ = nullptr;
  telemetry::Gauge* streams_gauge_ = nullptr;

  std::uint64_t batches_ = 0;

  std::thread scheduler_;
};

/// The /statusz "engine" section: every live StreamEngine with its stream
/// count, queue depth, and lifetime totals (exposed for tests).
[[nodiscard]] std::string engine_statusz_json();

}  // namespace sslic::engine
