#include "common/span_ring.h"

#include <cstdio>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>

namespace sslic::spans {

std::atomic<ThreadSpans*> g_threads[kMaxThreads];
std::atomic<std::size_t> g_thread_count{0};

namespace {

ThreadSpans* register_thread() {
  const std::size_t tid = g_thread_count.fetch_add(1, std::memory_order_relaxed);
  if (tid >= kMaxThreads) return nullptr;
  void* memory = std::malloc(sizeof(ThreadSpans));
  if (memory == nullptr) return nullptr;
  auto* spans = new (memory) ThreadSpans;
  spans->tid = static_cast<int>(tid);
  g_threads[tid].store(spans, std::memory_order_release);
  return spans;
}

void escape_into(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(*s) >= 0x20) out.push_back(*s);
  }
}

}  // namespace

ThreadSpans* this_thread() {
  thread_local ThreadSpans* const spans = register_thread();
  return spans;
}

void Ring::record(const Span& span) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  Slot* slots = slots_.load(std::memory_order_relaxed);
  if (slots == nullptr) {
    slots = static_cast<Slot*>(std::malloc(sizeof(Slot) * capacity_));
    if (slots != nullptr) {
      for (std::size_t i = 0; i < capacity_; ++i) new (slots + i) Slot;
      slots_.store(slots, std::memory_order_release);
    }
  }
  if (slots == nullptr ||
      (!wrap_ && head - base_.load(std::memory_order_relaxed) >= capacity_)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Slot& slot = slots[head % capacity_];
  slot.name.store(span.name, std::memory_order_relaxed);
  slot.begin_ns.store(span.begin_ns, std::memory_order_relaxed);
  slot.end_ns.store(span.end_ns, std::memory_order_relaxed);
  slot.arg.store(span.arg, std::memory_order_relaxed);
  slot.trace_id.store(span.trace_id, std::memory_order_relaxed);
  head_.store(head + 1, std::memory_order_release);
}

void write_chrome(std::ostream& os, Ring ThreadSpans::*ring, const char* cat) {
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  std::string line;
  char buf[192];
  const auto emit = [&] {
    os << (first ? "\n" : ",\n") << line;
    first = false;
  };
  for_each_thread([&](const ThreadSpans& thread) {
    if (const char* name = thread.name.load(std::memory_order_acquire)) {
      line = "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": ";
      line += std::to_string(thread.tid);
      line += ", \"args\": {\"name\": \"";
      escape_into(line, name);
      line += "\"}}";
      emit();
    }
    (thread.*ring).for_each([&](const Span& span) {
      line = "{\"name\": \"";
      escape_into(line, span.name);
      // Timestamps in microseconds with nanosecond precision, per the
      // Chrome trace-event format. A torn wrapping-ring event can end
      // before it begins; it gets zero duration.
      const std::uint64_t dur =
          span.end_ns >= span.begin_ns ? span.end_ns - span.begin_ns : 0;
      std::snprintf(buf, sizeof(buf),
                    "\", \"ph\": \"X\", \"cat\": \"%s\", \"pid\": 1, "
                    "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f",
                    cat, thread.tid, static_cast<double>(span.begin_ns) / 1000.0,
                    static_cast<double>(dur) / 1000.0);
      line += buf;
      if (span.arg != trace::kNoArg || span.trace_id != 0) {
        line += ", \"args\": {";
        if (span.arg != trace::kNoArg) line += "\"n\": " + std::to_string(span.arg);
        if (span.arg != trace::kNoArg && span.trace_id != 0) line += ", ";
        if (span.trace_id != 0)
          line += "\"trace_id\": " + std::to_string(span.trace_id);
        line += "}";
      }
      line += "}";
      emit();
    });
  });
  os << (first ? "" : "\n") << "]}\n";
}

}  // namespace sslic::spans
