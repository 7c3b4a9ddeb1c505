// Per-thread span storage shared by the trace session (common/trace.h) and
// the flight recorder (common/flight_recorder.h): one slot type, one ring
// type with two retention policies, one registration table and one Chrome
// trace-event serializer. Internal to common/.
//
// Each recording thread owns one table entry holding both of its rings, so
// a thread has the same tid in `--trace` output, in `/tracez` and in the
// crash report. The table is a fixed array claimed with an atomic counter,
// so the crash handler walks it without a lock. Entries and ring storage
// come from malloc, never operator new (the zero-allocation steady-state
// accounting of common/alloc_counter.h counts operator new only), and are
// never freed, so dumps still see threads that have exited.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "common/flight_recorder.h"
#include "common/trace.h"

namespace sslic::spans {

/// One span as recorded and as read back.
struct Span {
  const char* name;  // static storage duration
  std::uint64_t begin_ns;
  std::uint64_t end_ns;
  std::int64_t arg;
  std::uint64_t trace_id;  // ambient frame context, 0 = none
};

/// A ring slot. Every field is a relaxed atomic, so a reader racing a
/// wrapping writer sees at worst a torn event (fields of two spans), never
/// a data race.
struct Slot {
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> begin_ns{0};
  std::atomic<std::uint64_t> end_ns{0};
  std::atomic<std::int64_t> arg{0};
  std::atomic<std::uint64_t> trace_id{0};
};

/// A fixed-capacity ring, recorded into by its owning thread only. Its slots
/// are malloc'd on the first record. A wrapping ring keeps the most recent
/// `capacity` spans. A stop-on-full ring keeps the first `capacity` spans
/// since the last reset and counts the rest as dropped, so its slots are
/// write-once between resets. The writer publishes each slot with a release
/// store on `head_`; readers visit the retained window below an acquire
/// load of it.
class Ring {
 public:
  Ring(std::size_t capacity, bool wrap) : capacity_(capacity), wrap_(wrap) {}

  void record(const Span& span);

  /// Calls fn(const Span&) for each retained span, oldest first. Lock-free
  /// and allocation-free, so the crash handler can call it.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const Slot* slots = slots_.load(std::memory_order_acquire);
    if (slots == nullptr) return;
    // base_ is an earlier value of head_, so loading it first never sees
    // base_ > head_.
    const std::uint64_t base = base_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t first =
        std::max(base, head - std::min<std::uint64_t>(head, capacity_));
    for (std::uint64_t i = first; i < head; ++i) {
      const Slot& slot = slots[i % capacity_];
      fn(Span{slot.name.load(std::memory_order_relaxed),
              slot.begin_ns.load(std::memory_order_relaxed),
              slot.end_ns.load(std::memory_order_relaxed),
              slot.arg.load(std::memory_order_relaxed),
              slot.trace_id.load(std::memory_order_relaxed)});
    }
  }

  /// Empties the ring and zeroes its drop count. Safe while the owner keeps
  /// recording: the retained window just starts at the current head.
  void reset() {
    base_.store(head_.load(std::memory_order_acquire),
                std::memory_order_release);
    dropped_.store(0, std::memory_order_relaxed);
  }

  /// Spans written since process start (a reset does not rewind this).
  std::uint64_t written() const { return head_.load(std::memory_order_relaxed); }

  /// Spans refused since the last reset: by a full stop-on-full ring, or
  /// for lack of storage.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  bool allocated() const {
    return slots_.load(std::memory_order_acquire) != nullptr;
  }

 private:
  const std::size_t capacity_;
  const bool wrap_;
  std::atomic<Slot*> slots_{nullptr};
  std::atomic<std::uint64_t> head_{0};  // spans written since process start
  std::atomic<std::uint64_t> base_{0};  // head_ at the last reset
  std::atomic<std::uint64_t> dropped_{0};
};

/// One recording thread's table entry.
struct ThreadSpans {
  Ring trace{trace::kTraceCapacity, /*wrap=*/false};
  Ring flight{ops::kFlightCapacity, /*wrap=*/true};
  std::atomic<const char*> name{nullptr};  // malloc'd copy, never freed
  std::uint64_t last_end_ns = 0;  // owner-private: per-thread monotonizer
  int tid = 0;
};

/// The registration table: entry `tid` is published once its thread has
/// registered. Threads beyond kMaxThreads record nothing.
inline constexpr std::size_t kMaxThreads = 512;
extern std::atomic<ThreadSpans*> g_threads[kMaxThreads];
extern std::atomic<std::size_t> g_thread_count;  // claims, may exceed the max

/// The calling thread's entry, registered on first use; nullptr when the
/// table was full.
ThreadSpans* this_thread();

/// Calls fn(ThreadSpans&) for every registered thread, in tid order.
/// Lock-free and allocation-free, like Ring::for_each.
template <typename Fn>
void for_each_thread(Fn&& fn) {
  const std::size_t count = std::min(
      g_thread_count.load(std::memory_order_acquire), kMaxThreads);
  for (std::size_t tid = 0; tid < count; ++tid) {
    ThreadSpans* spans = g_threads[tid].load(std::memory_order_acquire);
    if (spans != nullptr) fn(*spans);  // null while still registering
  }
}

/// Writes the chosen ring of every thread as one Chrome trace-event JSON
/// document: thread names as metadata events, spans as complete events
/// tagged with `cat`.
void write_chrome(std::ostream& os, Ring ThreadSpans::*ring, const char* cat);

}  // namespace sslic::spans
