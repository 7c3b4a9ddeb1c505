#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "color/color_convert.h"
#include "common/check.h"
#include "common/flight_recorder.h"
#include "common/ops_server.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "slic/assign_kernels.h"
#include "slic/distance.h"

namespace sslic::engine {

namespace {

/// Live engines, for the /statusz "engine" section. Lock order: this mutex
/// first, then any engine's mutex_ — never the reverse.
std::mutex g_engines_mutex;
std::vector<StreamEngine*>& live_engines() {
  static std::vector<StreamEngine*> engines;
  return engines;
}

std::atomic<int> g_next_instance_id{0};

void register_engine(StreamEngine* engine) {
  // The statusz registration grabs the ops sections mutex, and the section
  // provider (engine_statusz_json) grabs g_engines_mutex while the server
  // holds the sections mutex — so registering while holding g_engines_mutex
  // would invert that order and can deadlock. Register first, unlocked.
  static std::once_flag statusz_once;
  std::call_once(statusz_once, [] {
    ops::register_statusz_section("engine", [] { return engine_statusz_json(); });
  });
  std::lock_guard<std::mutex> lock(g_engines_mutex);
  live_engines().push_back(engine);
}

void unregister_engine(StreamEngine* engine) {
  std::lock_guard<std::mutex> lock(g_engines_mutex);
  auto& engines = live_engines();
  engines.erase(std::remove(engines.begin(), engines.end(), engine),
                engines.end());
}

std::string engine_metric(int instance, const char* metric) {
  return "sslic.engine." + std::to_string(instance) + "." + metric;
}

std::string stream_metric(int instance, StreamId stream, const char* metric) {
  return "sslic.engine." + std::to_string(instance) + ".stream." +
         std::to_string(stream) + "." + metric;
}

}  // namespace

bool parse_admission_policy(const std::string& text, AdmissionPolicy* policy) {
  if (text == "block") {
    *policy = AdmissionPolicy::kBlock;
  } else if (text == "shed") {
    *policy = AdmissionPolicy::kShed;
  } else if (text == "drop-oldest" || text == "drop") {
    *policy = AdmissionPolicy::kDropOldest;
  } else {
    return false;
  }
  return true;
}

const char* admission_policy_name(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kBlock:
      return "block";
    case AdmissionPolicy::kShed:
      return "shed";
    case AdmissionPolicy::kDropOldest:
      return "drop-oldest";
  }
  return "unknown";
}

StreamEngine::StreamEngine(const EngineOptions& options)
    : options_(options),
      instance_id_(g_next_instance_id.fetch_add(1, std::memory_order_relaxed)) {
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
  batches_counter_ = &registry.counter(engine_metric(instance_id_, "batches"));
  frames_counter_ = &registry.counter(engine_metric(instance_id_, "frames"));
  shed_counter_ = &registry.counter(engine_metric(instance_id_, "shed"));
  dropped_counter_ = &registry.counter(engine_metric(instance_id_, "dropped"));
  queued_gauge_ = &registry.gauge(engine_metric(instance_id_, "queued"));
  inflight_gauge_ = &registry.gauge(engine_metric(instance_id_, "inflight"));
  streams_gauge_ = &registry.gauge(engine_metric(instance_id_, "streams"));
  register_engine(this);
  scheduler_ = std::thread([this] {
    trace::set_thread_name("engine-scheduler");
    scheduler_loop();
  });
}

StreamEngine::~StreamEngine() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  scheduler_cv_.notify_all();
  space_cv_.notify_all();
  done_cv_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
  unregister_engine(this);
  queued_gauge_->set(0.0);
  inflight_gauge_->set(0.0);
  streams_gauge_->set(0.0);
}

StreamId StreamEngine::open_stream(StreamOptions options) {
  SSLIC_CHECK(options.queue_limit >= 1);
  SSLIC_CHECK(options.algorithm == StreamAlgorithm::kPpa ||
              !options.temporal_warm);

  auto stream = std::make_unique<Stream>();
  stream->opts = std::move(options);
  stream->slots.resize(stream->opts.queue_limit);
  stream->fifo.resize(stream->opts.queue_limit);
  stream->free_slots.reserve(stream->opts.queue_limit);
  for (std::size_t i = stream->opts.queue_limit; i > 0; --i)
    stream->free_slots.push_back(static_cast<std::uint32_t>(i - 1));
  // wait() classifies evicted sequences through this ring; size it well
  // past the queue depth so only a waiter that sleeps through hundreds of
  // later evictions can be misclassified (engine.h documents the limit).
  stream->dropped_ring.assign(
      std::max<std::size_t>(64, stream->opts.queue_limit * 4), 0);

  // Per-stream segmenters, constructed (and their options validated) once
  // so the per-frame path performs no parameter setup.
  if (stream->opts.algorithm == StreamAlgorithm::kCpa) {
    stream->cpa.emplace(stream->opts.params);
  } else {
    stream->temporal.emplace(stream->opts.params, DataWidth::float64(),
                             stream->opts.warm_iterations);
  }

  std::unique_lock<std::mutex> lock(mutex_);
  const StreamId id = next_stream_id_++;
  stream->id = id;
  lock.unlock();

  // Registry lookups allocate; do them outside the engine lock.
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
  stream->latency_ms =
      &registry.histogram(stream_metric(instance_id_, id, "latency_ms"));
  stream->queue_ms =
      &registry.histogram(stream_metric(instance_id_, id, "queue_ms"));
  stream->depth_gauge =
      &registry.gauge(stream_metric(instance_id_, id, "depth"));
  stream->completed_counter =
      &registry.counter(stream_metric(instance_id_, id, "completed"));
  stream->shed_counter =
      &registry.counter(stream_metric(instance_id_, id, "shed"));
  stream->dropped_counter =
      &registry.counter(stream_metric(instance_id_, id, "dropped"));
  if (stream->opts.slo_target_ms > 0.0) {
    stream->slo = std::make_unique<ops::SloTracker>(
        "engine." + std::to_string(instance_id_) + ".stream." +
            std::to_string(id),
        stream->opts.slo_target_ms, stream->opts.slo_objective);
  }

  lock.lock();
  streams_.push_back(std::move(stream));
  streams_gauge_->set(static_cast<double>(streams_.size()));
  return id;
}

StreamEngine::Stream* StreamEngine::find_stream(StreamId id) const {
  for (const auto& stream : streams_)
    if (stream->id == id) return stream.get();
  return nullptr;
}

void StreamEngine::publish_depth_locked(Stream& stream) {
  stream.depth_gauge->set(static_cast<double>(stream.fifo_count));
  queued_gauge_->set(static_cast<double>(global_queued_));
}

bool StreamEngine::sequence_recently_dropped(const Stream& stream,
                                             std::uint64_t sequence) const {
  for (const std::uint64_t dropped : stream.dropped_ring)
    if (dropped == sequence) return true;
  return false;
}

std::uint64_t StreamEngine::drop_oldest_locked(Stream& stream,
                                               std::uint64_t* trace_id) {
  // Never evict the frame in flight (fifo position 0 while in_flight) and
  // never a slot still being filled by a concurrent submit.
  const std::size_t position = stream.in_flight ? 1 : 0;
  if (stream.fifo_count <= position) return 0;
  const std::size_t size = stream.fifo.size();
  const std::uint32_t slot_index =
      stream.fifo[(stream.fifo_head + position) % size];
  Slot& slot = stream.slots[slot_index];
  if (!slot.ready) return 0;
  const std::uint64_t sequence = slot.sequence;
  if (trace_id != nullptr) *trace_id = slot.trace_id;
  if (slot.scene_cut) {
    // The evicted frame was the first after a reset_stream(): the cut moves
    // to the next queued frame, or to the next admission if none is queued.
    if (position + 1 < stream.fifo_count) {
      stream.slots[stream.fifo[(stream.fifo_head + position + 1) % size]]
          .scene_cut = true;
    } else {
      stream.reset_pending = true;
    }
  }
  for (std::size_t i = position; i + 1 < stream.fifo_count; ++i)
    stream.fifo[(stream.fifo_head + i) % size] =
        stream.fifo[(stream.fifo_head + i + 1) % size];
  --stream.fifo_count;
  --global_queued_;
  stream.free_slots.push_back(slot_index);
  stream.dropped_ring[stream.dropped_ring_next] = sequence;
  stream.dropped_ring_next =
      (stream.dropped_ring_next + 1) % stream.dropped_ring.size();
  ++stream.dropped;
  stream.dropped_counter->add();
  dropped_counter_->add();
  publish_depth_locked(stream);
  return sequence;
}

SubmitResult StreamEngine::submit(StreamId id, const RgbImage& frame) {
  // Mint the frame context before anything else: the admit-wait stage
  // starts here, and the ambient scope makes the submit span (and any
  // flight events below) carry the new frame's id. Shed frames burn an id,
  // which is fine — ids are observational and never reused.
  const double enter_ms = clock_.elapsed_ms();
  const std::uint64_t trace_id = trace::mint_trace_id();
  const trace::FrameScope frame_scope(trace_id);
  SSLIC_TRACE_SCOPE_AT(1, "engine.submit");
  SubmitResult result;
  PendingCallback drop_callback;  // at most one eviction per admission

  std::unique_lock<std::mutex> lock(mutex_);
  Stream* stream = find_stream(id);
  if (stream == nullptr || stream->closing || stop_) {
    shed_counter_->add();
    if (stream != nullptr) {
      ++stream->shed;
      stream->shed_counter->add();
    }
    return result;  // kShed
  }

  const auto stream_full = [&] {
    return stream->fifo_count >= stream->slots.size();
  };
  const auto global_full = [&] {
    return options_.global_queue_limit != 0 &&
           global_queued_ >= options_.global_queue_limit;
  };

  if (stream_full() || global_full()) {
    switch (stream->opts.policy) {
      case AdmissionPolicy::kBlock:
        space_cv_.wait(lock, [&] {
          // The stream can be closed while we sleep: re-resolve the
          // pointer every wake instead of trusting the cached one.
          stream = find_stream(id);
          return stream == nullptr || stream->closing || stop_ ||
                 (!stream_full() && !global_full());
        });
        if (stream == nullptr || stream->closing || stop_) {
          shed_counter_->add();
          if (stream != nullptr) {
            ++stream->shed;
            stream->shed_counter->add();
          }
          return result;  // kShed
        }
        break;
      case AdmissionPolicy::kShed:
        ++stream->shed;
        stream->shed_counter->add();
        shed_counter_->add();
        return result;  // kShed
      case AdmissionPolicy::kDropOldest: {
        std::uint64_t dropped_trace_id = 0;
        result.dropped_sequence = drop_oldest_locked(*stream,
                                                     &dropped_trace_id);
        if (result.dropped_sequence == 0 || global_full()) {
          // Nothing droppable (queue of 1 with the frame in flight, or the
          // engine-wide bound is the binding constraint): shed instead.
          result.dropped_sequence = 0;
          ++stream->shed;
          stream->shed_counter->add();
          shed_counter_->add();
          return result;  // kShed
        }
        if (stream->opts.on_complete) {
          drop_callback.fn = &stream->opts.on_complete;
          drop_callback.result.ticket = {id, result.dropped_sequence};
          drop_callback.result.context = {id, result.dropped_sequence,
                                          dropped_trace_id};
          drop_callback.result.dropped = true;
        }
        break;
      }
    }
  }

  // Reserve a slot, then copy the pixels outside the lock (a frame can be
  // megabytes; holding the engine lock for the memcpy would serialize
  // producers against the scheduler). The reserved fifo entry keeps the
  // stream alive: close_stream() drains before reclaiming.
  SSLIC_CHECK(!stream->free_slots.empty());
  const std::uint32_t slot_index = stream->free_slots.back();
  stream->free_slots.pop_back();
  Slot& slot = stream->slots[slot_index];
  if (!stream->slots_presized) {
    // First admission: the stream's geometry is now known, so give every
    // still-free slot its pixel capacity up front. Otherwise a slot first
    // reached during a later burst would allocate mid-steady-state (the
    // zero-allocation claim must not depend on queue-depth history). Only
    // free slots are touched — a concurrent submitter may be filling a
    // reserved one outside the lock.
    const std::size_t pixels = static_cast<std::size_t>(frame.width()) *
                               static_cast<std::size_t>(frame.height());
    for (const std::uint32_t free_index : stream->free_slots)
      stream->slots[free_index].frame.pixels().reserve(pixels);
    stream->slots_presized = true;
  }
  slot.sequence = stream->next_sequence++;
  slot.trace_id = trace_id;
  slot.enter_ms = enter_ms;
  slot.submit_ms = clock_.elapsed_ms();
  slot.ready = false;
  slot.scene_cut = stream->reset_pending;
  stream->reset_pending = false;
  stream->fifo[(stream->fifo_head + stream->fifo_count) % stream->fifo.size()] =
      slot_index;
  ++stream->fifo_count;
  ++stream->submitted;
  ++global_queued_;
  publish_depth_locked(*stream);
  result.status = SubmitStatus::kAdmitted;
  result.ticket = {id, slot.sequence};
  result.context = {id, slot.sequence, trace_id};
  lock.unlock();

  if (drop_callback.fn != nullptr) (*drop_callback.fn)(drop_callback.result);

  slot.frame = frame;  // grow-only at steady geometry: no allocation

  lock.lock();
  slot.ready = true;
  lock.unlock();
  scheduler_cv_.notify_one();
  return result;
}

void StreamEngine::scheduler_loop() {
  const auto work_ready = [this] {
    if (paused_) return false;
    for (const auto& stream : streams_) {
      if (stream->in_flight || stream->fifo_count == 0) continue;
      if (stream->slots[stream->fifo[stream->fifo_head % stream->fifo.size()]]
              .ready)
        return true;
    }
    return false;
  };

  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    // The timed wait doubles as the heartbeat cadence: an idle engine
    // still beats ~1/s so a /healthz watchdog covers it.
    scheduler_cv_.wait_for(lock, std::chrono::seconds(1),
                           [&] { return stop_ || work_ready(); });
    if (options_.heartbeat) ops::heartbeat();
    if (stop_) break;
    if (!work_ready()) continue;

    // Form a cross-stream batch: the queue head of every ready stream, at
    // most one frame per stream, taken round-robin from the fairness cursor
    // so no stream's frame always runs and calls back first.
    batch_.clear();
    // Queue-delay / batch-formation stage boundary for every frame of this
    // batch (one clock read — the stages must tile the timeline exactly).
    const double form_ms = clock_.elapsed_ms();
    const std::size_t num_streams = streams_.size();
    // A batch holds at most one frame per stream. Sizing the batch scratch
    // for every open stream here, rather than growing it on the first
    // multi-frame batch, keeps a steady-state cycle allocation-free however
    // the frames happened to batch while warming up.
    batch_.reserve(num_streams);
    drafts_.reserve(num_streams);
    callbacks_.reserve(num_streams);
    for (std::size_t step = 0; step < num_streams; ++step) {
      Stream& stream = *streams_[(round_robin_cursor_ + step) % num_streams];
      if (stream.in_flight || stream.fifo_count == 0) continue;
      Slot& slot =
          stream.slots[stream.fifo[stream.fifo_head % stream.fifo.size()]];
      if (!slot.ready) continue;
      stream.in_flight = true;
      BatchEntry entry;
      entry.stream = &stream;
      entry.slot = &slot;
      entry.form_ms = form_ms;
      batch_.push_back(entry);
    }
    round_robin_cursor_ = (round_robin_cursor_ + 1) % std::max<std::size_t>(
                                                          1, num_streams);
    if (batch_.empty()) continue;

    ++batches_;
    batches_counter_->add();
    inflight_gauge_->set(static_cast<double>(batch_.size()));
    const double start_ms = clock_.elapsed_ms();
    for (BatchEntry& entry : batch_) entry.start_ms = start_ms;
    lock.unlock();

    {
      SSLIC_TRACE_SCOPE("engine.batch",
                        static_cast<std::int64_t>(batch_.size()));
      // Frames are the pool chunks: inside a worker the inner segmenter
      // sees in_parallel_region() and runs its serial path, bit-identical
      // to every parallel path by the determinism contract.
      const auto run_frame = [&](std::size_t i) { process_frame(batch_[i]); };
      ThreadPool& pool = ThreadPool::global();
      if (pool.threads() <= 1 || batch_.size() <= 1 ||
          ThreadPool::in_parallel_region()) {
        for (std::size_t i = 0; i < batch_.size(); ++i) run_frame(i);
      } else {
        pool.run_chunks(batch_.size(), run_frame);
      }
    }

    const double end_ms = clock_.elapsed_ms();
    lock.lock();
    callbacks_.clear();
    drafts_.clear();
    // Batch-wide segment-stage facts, resolved once: the wide event stores
    // static name strings so common/frame_log never depends on slic headers.
    const char* const isa = simd::isa_name(kernels::active_isa());
    const auto batch_frames = static_cast<std::uint32_t>(batch_.size());
    for (BatchEntry& entry : batch_) {
      Stream& stream = *entry.stream;
      Slot& slot = *entry.slot;
      const double latency = end_ms - slot.submit_ms;
      const double queued = entry.start_ms - slot.submit_ms;
      stream.latency_ms->record(latency, slot.trace_id);
      stream.queue_ms->record(queued, slot.trace_id);
      if (stream.slo) stream.slo->record(latency);
      // Draft the frame's wide event now, while the lock pins the stream: a
      // stream with no callback can be closed (and freed) the moment the
      // bookkeeping unlock below lets close_stream() proceed. Only clock
      // stamps and the emission happen after.
      FrameEventDraft draft;
      draft.event.trace_id = slot.trace_id;
      draft.event.engine_id = instance_id_;
      draft.event.stream_id = stream.id;
      draft.event.sequence = slot.sequence;
      draft.event.admit_wait_ms = slot.submit_ms - slot.enter_ms;
      draft.event.queue_ms = entry.form_ms - slot.submit_ms;
      draft.event.batch_form_ms = entry.seg_begin_ms - entry.form_ms;
      draft.event.segment_ms = entry.seg_end_ms - entry.seg_begin_ms;
      draft.event.convert_ms = stream.instr.convert_ms;
      draft.event.init_ms = stream.instr.init_ms;
      draft.event.assign_ms = stream.instr.assign_ms;
      draft.event.update_ms = stream.instr.update_ms;
      draft.event.connectivity_ms = stream.instr.connectivity_ms;
      draft.event.iterations =
          static_cast<std::uint32_t>(stream.instr.iterations);
      draft.event.isa = isa;
      draft.event.warm = stream.instr.warm;
      draft.event.batch_frames = batch_frames;
      draft.event.final_labels =
          static_cast<std::uint32_t>(stream.instr.final_label_count);
      draft.event.pixels_relabelled = stream.instr.pixels_relabelled;
      draft.enter_ms = slot.enter_ms;
      draft.seg_end_ms = entry.seg_end_ms;
      drafts_.push_back(draft);
      stream.completed_sequence = slot.sequence;
      stream.last = entry.segmentation;
      ++stream.completed;
      stream.completed_counter->add();
      frames_counter_->add();
      // Pop the head slot and free it; producers blocked on space wake
      // after the unlock below.
      const std::uint32_t slot_index =
          stream.fifo[stream.fifo_head % stream.fifo.size()];
      stream.fifo_head = (stream.fifo_head + 1) % stream.fifo.size();
      --stream.fifo_count;
      --global_queued_;
      stream.free_slots.push_back(slot_index);
      stream.in_flight = false;
      publish_depth_locked(stream);
      if (stream.opts.on_complete) {
        PendingCallback pending;
        pending.stream = &stream;
        pending.fn = &stream.opts.on_complete;
        pending.result.ticket = {stream.id, slot.sequence};
        pending.result.context = {stream.id, slot.sequence, slot.trace_id};
        pending.result.segmentation = entry.segmentation;
        pending.result.instrumentation = &stream.instr;
        pending.result.latency_ms = latency;
        pending.result.queue_ms = queued;
        pending.draft_index = drafts_.size() - 1;
        callbacks_.push_back(pending);
        // Pins the stream: close_stream()/drain() wait until the callback
        // has actually run, so `fn` and the result pointers stay valid.
        ++stream.callbacks_inflight;
      }
    }
    events_pending_ += drafts_.size();
    inflight_gauge_->set(0.0);
    lock.unlock();
    space_cv_.notify_all();
    done_cv_.notify_all();
    // Frames without callbacks end when their result becomes observable —
    // right here, after the notifies. Callback frames overwrite below.
    const double publish_ms = clock_.elapsed_ms();
    for (FrameEventDraft& draft : drafts_) draft.end_ms = publish_ms;
    // Completion callbacks run here — after the bookkeeping, before the
    // next batch forms — so a callback always observes its stream's result
    // before any later frame of that stream starts. Callbacks may submit
    // (the lock is released).
    for (const PendingCallback& pending : callbacks_) {
      (*pending.fn)(pending.result);
      drafts_[pending.draft_index].end_ms = clock_.elapsed_ms();
    }
    // Emit the wide events now that every stage boundary is known. drafts_
    // is scheduler-thread-owned scratch; nothing here touches a stream.
    for (FrameEventDraft& draft : drafts_) {
      draft.event.callback_ms = draft.end_ms - draft.seg_end_ms;
      draft.event.e2e_ms = draft.end_ms - draft.enter_ms;
      draft.event.completed_ns = trace::now_ns();
      ops::record_frame_event(draft.event);
    }
    lock.lock();
    for (const PendingCallback& pending : callbacks_)
      --pending.stream->callbacks_inflight;
    events_pending_ -= drafts_.size();
    if (!drafts_.empty()) done_cv_.notify_all();
  }
}

void StreamEngine::process_frame(BatchEntry& entry) {
  Stream& stream = *entry.stream;
  Slot& slot = *entry.slot;
  // Install the frame's ambient context on this worker thread: the frame
  // span, every span inside the segmenter, and any flight events it records
  // all carry slot.trace_id — the /framez <-> /tracez join key.
  const trace::FrameScope frame_scope(slot.trace_id);
  entry.seg_begin_ms = clock_.elapsed_ms();
  {
    SSLIC_TRACE_SCOPE_AT(1, "engine.frame",
                         static_cast<std::int64_t>(slot.sequence));
    if (stream.temporal) {
      if (slot.scene_cut || !stream.opts.temporal_warm)
        stream.temporal->reset();
      entry.segmentation = &stream.temporal->next_frame(slot.frame,
                                                        &stream.instr);
    } else {
      const double convert_ms = srgb_to_lab(slot.frame, stream.lab);
      stream.cpa->segment_lab_into(stream.lab, stream.result, stream.scratch,
                                   {}, &stream.instr);
      // After the run: segment_lab_into resets the record.
      stream.instr.convert_ms = convert_ms;
      entry.segmentation = &stream.result;
    }
  }
  entry.seg_end_ms = clock_.elapsed_ms();
}

WaitStatus StreamEngine::wait(const FrameTicket& ticket) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    Stream* stream = find_stream(ticket.stream);
    if (stream == nullptr || ticket.sequence == 0 ||
        ticket.sequence >= stream->next_sequence)
      return WaitStatus::kInvalid;
    if (sequence_recently_dropped(*stream, ticket.sequence))
      return WaitStatus::kDropped;
    if (ticket.sequence <= stream->completed_sequence)
      return WaitStatus::kCompleted;
    bool pending = false;
    for (std::size_t i = 0; i < stream->fifo_count; ++i) {
      const Slot& slot =
          stream->slots[stream->fifo[(stream->fifo_head + i) %
                                     stream->fifo.size()]];
      if (slot.sequence == ticket.sequence) {
        pending = true;
        break;
      }
    }
    if (!pending) {
      // Admitted, not queued, not completed: evicted (and already rotated
      // out of the recent-drop ring if many drops followed).
      return WaitStatus::kDropped;
    }
    done_cv_.wait(lock);
  }
}

void StreamEngine::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] {
    if (stop_) return true;
    if (global_queued_ != 0 || events_pending_ != 0) return false;
    for (const auto& stream : streams_)
      if (stream->in_flight || stream->callbacks_inflight != 0) return false;
    return true;
  });
}

void StreamEngine::close_stream(StreamId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  Stream* stream = find_stream(id);
  if (stream == nullptr) return;
  stream->closing = true;
  // Blocked producers must wake and observe the close; the scheduler keeps
  // draining the queued frames (completions still fire).
  lock.unlock();
  space_cv_.notify_all();
  scheduler_cv_.notify_all();
  lock.lock();
  done_cv_.wait(lock, [&] {
    stream = find_stream(id);
    return stream == nullptr || stop_ ||
           (stream->fifo_count == 0 && !stream->in_flight &&
            stream->callbacks_inflight == 0);
  });
  if (stream == nullptr) return;
  stream->depth_gauge->set(0.0);
  for (auto it = streams_.begin(); it != streams_.end(); ++it) {
    if ((*it)->id == id) {
      streams_.erase(it);
      break;
    }
  }
  streams_gauge_->set(static_cast<double>(streams_.size()));
  if (round_robin_cursor_ >= streams_.size()) round_robin_cursor_ = 0;
  lock.unlock();
  // A waiter parked on one of this stream's tickets must re-resolve the
  // stream (and report kInvalid) rather than sleep forever.
  done_cv_.notify_all();
}

const Segmentation* StreamEngine::last_result(StreamId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Stream* stream = find_stream(id);
  return stream == nullptr ? nullptr : stream->last;
}

void StreamEngine::reset_stream(StreamId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  Stream* stream = find_stream(id);
  if (stream != nullptr) stream->reset_pending = true;
}

void StreamEngine::pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void StreamEngine::resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  scheduler_cv_.notify_all();
}

StreamStats StreamEngine::stream_stats(StreamId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  StreamStats stats;
  const Stream* stream = find_stream(id);
  if (stream == nullptr) return stats;
  stats.submitted = stream->submitted;
  stats.completed = stream->completed;
  stats.shed = stream->shed;
  stats.dropped = stream->dropped;
  stats.queued = stream->fifo_count;
  stats.in_flight = stream->in_flight;
  stats.latency_p50_ms = stream->latency_ms->p50();
  stats.latency_p95_ms = stream->latency_ms->p95();
  stats.latency_p99_ms = stream->latency_ms->p99();
  stats.latency_mean_ms = stream->latency_ms->mean();
  return stats;
}

EngineStats StreamEngine::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  EngineStats stats;
  stats.streams = streams_.size();
  stats.queued = global_queued_;
  stats.batches = batches_;
  stats.frames = frames_counter_->value();
  stats.shed = shed_counter_->value();
  stats.dropped = dropped_counter_->value();
  return stats;
}

std::string engine_statusz_json() {
  std::lock_guard<std::mutex> registry_lock(g_engines_mutex);
  std::string body = "{\"engines\": [";
  bool first = true;
  for (StreamEngine* engine : live_engines()) {
    const EngineStats stats = engine->stats();
    if (!first) body += ", ";
    first = false;
    body += "{\"id\": " + std::to_string(engine->instance_id());
    body += ", \"streams\": " + std::to_string(stats.streams);
    body += ", \"queued\": " + std::to_string(stats.queued);
    body += ", \"batches\": " + std::to_string(stats.batches);
    body += ", \"frames\": " + std::to_string(stats.frames);
    body += ", \"shed\": " + std::to_string(stats.shed);
    body += ", \"dropped\": " + std::to_string(stats.dropped);
    body += ", \"global_queue_limit\": " +
            std::to_string(engine->options().global_queue_limit);
    body += "}";
  }
  body += "]}";
  return body;
}

}  // namespace sslic::engine
