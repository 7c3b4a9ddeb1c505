#include "common/frame_log.h"

#include <cstdio>
#include <mutex>

namespace sslic::ops {

namespace {

/// Per-(engine, stream) running aggregates. Slots are claimed on first event
/// and never released (stream ids are stable for a process lifetime); the
/// table is fixed-size so aggregation never allocates.
struct StreamAggregate {
  bool used = false;
  int engine_id = 0;
  std::uint64_t stream_id = 0;
  std::uint64_t frames = 0;
  double admit_wait_ms = 0.0;
  double queue_ms = 0.0;
  double batch_form_ms = 0.0;
  double segment_ms = 0.0;
  double callback_ms = 0.0;
  double e2e_ms = 0.0;
  double e2e_max_ms = 0.0;
  std::uint64_t last_trace_id = 0;
};

constexpr std::size_t kMaxAggregates = 256;

// All state below is guarded by mutex() — recording is once per frame, so a
// plain lock is cheaper to reason about than lock-free rings and is still
// invisible at frame cadence. The mutex is leaked on purpose
// (process-lifetime, like the trace registry): an atexit-ordered destructor
// racing a recording thread is a worse failure mode. The arrays are
// constant-initialized and trivially destructible.
std::mutex& mutex() {
  static std::mutex* m = new std::mutex;
  return *m;
}

WideFrameEvent g_ring[kFramezCapacity];
std::uint64_t g_recorded = 0;  // total ever; ring index = total % capacity
StreamAggregate g_aggregates[kMaxAggregates];
std::uint64_t g_aggregate_overflow = 0;  // events whose stream found no slot

StreamAggregate* find_aggregate_locked(int engine_id, std::uint64_t stream_id) {
  for (std::size_t i = 0; i < kMaxAggregates; ++i) {
    StreamAggregate& slot = g_aggregates[i];
    if (!slot.used) {
      slot.used = true;
      slot.engine_id = engine_id;
      slot.stream_id = stream_id;
      return &slot;
    }
    if (slot.engine_id == engine_id && slot.stream_id == stream_id)
      return &slot;
  }
  return nullptr;
}

void append_num(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

void append_escaped(std::string& out, const char* s) {
  for (std::size_t i = 0; s[i] != '\0'; ++i) {
    const char c = s[i];
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
}

}  // namespace

void record_frame_event(const WideFrameEvent& event) {
  const std::lock_guard<std::mutex> lock(mutex());
  g_ring[g_recorded % kFramezCapacity] = event;
  ++g_recorded;
  StreamAggregate* agg = find_aggregate_locked(event.engine_id,
                                               event.stream_id);
  if (agg == nullptr) {
    ++g_aggregate_overflow;
    return;
  }
  ++agg->frames;
  agg->admit_wait_ms += event.admit_wait_ms;
  agg->queue_ms += event.queue_ms;
  agg->batch_form_ms += event.batch_form_ms;
  agg->segment_ms += event.segment_ms;
  agg->callback_ms += event.callback_ms;
  agg->e2e_ms += event.e2e_ms;
  if (event.e2e_ms > agg->e2e_max_ms) agg->e2e_max_ms = event.e2e_ms;
  agg->last_trace_id = event.trace_id;
}

std::uint64_t frame_events_recorded() {
  const std::lock_guard<std::mutex> lock(mutex());
  return g_recorded;
}

void append_frame_event_json(std::string& out, const WideFrameEvent& e) {
  out += "{\"trace_id\": " + std::to_string(e.trace_id);
  out += ", \"engine\": " + std::to_string(e.engine_id);
  out += ", \"stream\": " + std::to_string(e.stream_id);
  out += ", \"seq\": " + std::to_string(e.sequence);
  out += ", \"completed_ns\": " + std::to_string(e.completed_ns);
  out += ", \"e2e_ms\": ";
  append_num(out, e.e2e_ms);
  out += ", \"stages_ms\": {\"admit_wait\": ";
  append_num(out, e.admit_wait_ms);
  out += ", \"queue\": ";
  append_num(out, e.queue_ms);
  out += ", \"batch_form\": ";
  append_num(out, e.batch_form_ms);
  out += ", \"segment\": ";
  append_num(out, e.segment_ms);
  out += ", \"callback\": ";
  append_num(out, e.callback_ms);
  // The segmenter's stages lie inside `segment`, so they get their own
  // object and `stages_ms` keeps tiling `e2e_ms` exactly.
  out += "}, \"segment_stages_ms\": {\"convert\": ";
  append_num(out, e.convert_ms);
  out += ", \"init\": ";
  append_num(out, e.init_ms);
  out += ", \"assign\": ";
  append_num(out, e.assign_ms);
  out += ", \"update\": ";
  append_num(out, e.update_ms);
  out += ", \"connectivity\": ";
  append_num(out, e.connectivity_ms);
  out += "}, \"iterations\": " + std::to_string(e.iterations);
  out += ", \"isa\": \"";
  append_escaped(out, e.isa != nullptr ? e.isa : "");
  out += "\", \"warm\": ";
  out += e.warm ? "true" : "false";
  out += ", \"batch_frames\": " + std::to_string(e.batch_frames);
  out += ", \"final_labels\": " + std::to_string(e.final_labels);
  out += ", \"pixels_relabelled\": " + std::to_string(e.pixels_relabelled);
  out += "}";
}

std::string framez_json() {
  const std::lock_guard<std::mutex> lock(mutex());
  std::string out;
  out.reserve(4096);
  out += "{\"capacity\": " + std::to_string(kFramezCapacity);
  out += ", \"recorded\": " + std::to_string(g_recorded);
  out += ", \"aggregate_overflow\": " + std::to_string(g_aggregate_overflow);
  out += ", \"recent\": [";
  if (g_recorded > 0) {
    const std::uint64_t retained =
        g_recorded < kFramezCapacity ? g_recorded : kFramezCapacity;
    for (std::uint64_t i = g_recorded - retained; i < g_recorded; ++i) {
      out += i == g_recorded - retained ? "\n" : ",\n";
      append_frame_event_json(out, g_ring[i % kFramezCapacity]);
    }
    out += "\n";
  }
  out += "], \"streams\": [";
  bool first = true;
  for (const StreamAggregate& agg : g_aggregates) {
    if (!agg.used || agg.frames == 0) continue;
    out += first ? "\n" : ",\n";
    first = false;
    const auto n = static_cast<double>(agg.frames);
    out += "{\"engine\": " + std::to_string(agg.engine_id);
    out += ", \"stream\": " + std::to_string(agg.stream_id);
    out += ", \"frames\": " + std::to_string(agg.frames);
    out += ", \"last_trace_id\": " + std::to_string(agg.last_trace_id);
    out += ", \"mean_ms\": {\"admit_wait\": ";
    append_num(out, agg.admit_wait_ms / n);
    out += ", \"queue\": ";
    append_num(out, agg.queue_ms / n);
    out += ", \"batch_form\": ";
    append_num(out, agg.batch_form_ms / n);
    out += ", \"segment\": ";
    append_num(out, agg.segment_ms / n);
    out += ", \"callback\": ";
    append_num(out, agg.callback_ms / n);
    out += ", \"e2e\": ";
    append_num(out, agg.e2e_ms / n);
    out += "}, \"e2e_max_ms\": ";
    append_num(out, agg.e2e_max_ms);
    out += "}";
  }
  out += first ? "" : "\n";
  out += "]}\n";
  return out;
}

std::vector<WideFrameEvent> recent_frame_events() {
  const std::lock_guard<std::mutex> lock(mutex());
  std::vector<WideFrameEvent> out;
  const std::uint64_t retained =
      g_recorded < kFramezCapacity ? g_recorded : kFramezCapacity;
  out.reserve(static_cast<std::size_t>(retained));
  for (std::uint64_t i = g_recorded - retained; i < g_recorded; ++i)
    out.push_back(g_ring[i % kFramezCapacity]);
  return out;
}

void framez_reset() {
  const std::lock_guard<std::mutex> lock(mutex());
  g_recorded = 0;
  g_aggregate_overflow = 0;
  for (StreamAggregate& agg : g_aggregates) agg = StreamAggregate{};
}

}  // namespace sslic::ops
