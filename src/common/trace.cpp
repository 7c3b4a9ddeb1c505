#include "common/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <ostream>

#include "common/span_ring.h"

namespace sslic::trace {

std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

// Frame contexts are compiled unconditionally (see trace.h): wide events and
// exemplars depend on them even in -DSSLIC_TRACING=OFF builds.
namespace {
std::atomic<std::uint64_t> g_next_trace_id{1};
thread_local std::uint64_t t_frame_trace_id = 0;
}  // namespace

std::uint64_t mint_trace_id() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t current_trace_id() { return t_frame_trace_id; }

void set_current_trace_id(std::uint64_t id) { t_frame_trace_id = id; }

#if SSLIC_TRACING_ENABLED

namespace detail {
std::atomic<unsigned> g_mode{0};
std::atomic<int> g_detail{0};

namespace {

void set_mode_bit(unsigned bit, bool on) {
  if (on) {
    g_mode.fetch_or(bit, std::memory_order_release);
  } else {
    g_mode.fetch_and(~bit, std::memory_order_release);
  }
}

}  // namespace
}  // namespace detail

namespace {

std::mutex g_path_mutex;
std::string g_path;  // guarded by g_path_mutex

void dump_at_exit() {
  if ((detail::g_mode.load(std::memory_order_acquire) & detail::kTraceBit) == 0)
    return;
  detail::g_mode.fetch_and(~detail::kTraceBit, std::memory_order_release);
  std::string path;
  {
    const std::lock_guard<std::mutex> lock(g_path_mutex);
    path = g_path;
  }
  if (path.empty()) return;
  std::size_t events = 0;
  spans::for_each_thread([&](const spans::ThreadSpans& thread) {
    thread.trace.for_each([&](const spans::Span&) { ++events; });
  });
  if (write_file(path)) {
    std::fprintf(stderr, "[trace] wrote %s (%zu events, %llu dropped)\n",
                 path.c_str(), events,
                 static_cast<unsigned long long>(dropped_events()));
  } else {
    std::fprintf(stderr, "[trace] FAILED to write %s\n", path.c_str());
  }
}

// Arms at startup when SSLIC_TRACE / SSLIC_TRACE_DETAIL are set, so every
// binary (tests included) is traceable without code changes.
const struct TraceEnvInit {
  TraceEnvInit() {
    if (const char* env = std::getenv("SSLIC_TRACE"); env != nullptr && *env != '\0')
      arm(env);
    if (const char* env = std::getenv("SSLIC_TRACE_DETAIL")) {
      char* end = nullptr;
      const long parsed = std::strtol(env, &end, 10);
      if (end != env && *end == '\0') set_detail_level(static_cast<int>(parsed));
    }
  }
} g_trace_env_init;

}  // namespace

namespace detail {

void record(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns,
            std::int64_t arg, unsigned mode) {
  spans::ThreadSpans* thread = spans::this_thread();
  if (thread == nullptr) return;  // registration table full
  // Per-thread strictly-increasing completion times: spans end in program
  // order on one thread, so only equal-nanosecond stamps need nudging.
  if (end_ns <= thread->last_end_ns) end_ns = thread->last_end_ns + 1;
  thread->last_end_ns = end_ns;
  const spans::Span span{name, std::min(begin_ns, end_ns), end_ns, arg,
                         current_trace_id()};
  if ((mode & kFlightBit) != 0) thread->flight.record(span);
  if ((mode & kTraceBit) != 0) thread->trace.record(span);
}

}  // namespace detail

void arm(const std::string& path) {
  {
    const std::lock_guard<std::mutex> lock(g_path_mutex);
    g_path = path;
  }
  static const bool registered = [] {
    std::atexit(&dump_at_exit);
    return true;
  }();
  static_cast<void>(registered);
  detail::set_mode_bit(detail::kTraceBit, true);
}

void disarm() { detail::set_mode_bit(detail::kTraceBit, false); }

bool armed() {
  return (detail::g_mode.load(std::memory_order_relaxed) & detail::kTraceBit) != 0;
}

void set_armed(bool armed_now) {
  detail::set_mode_bit(detail::kTraceBit, armed_now);
}

void set_flight_recording(bool enabled) {
  detail::set_mode_bit(detail::kFlightBit, enabled);
}

int detail_level() { return detail::g_detail.load(std::memory_order_relaxed); }

void set_detail_level(int level) {
  detail::g_detail.store(level, std::memory_order_relaxed);
}

void set_thread_name(const std::string& name) {
  spans::ThreadSpans* thread = spans::this_thread();
  if (thread == nullptr) return;
  // malloc'd and never freed: a concurrent serializer may hold the old name.
  auto* copy = static_cast<char*>(std::malloc(name.size() + 1));
  if (copy == nullptr) return;
  std::memcpy(copy, name.c_str(), name.size() + 1);
  thread->name.store(copy, std::memory_order_release);
}

void serialize(std::ostream& os) {
  spans::write_chrome(os, &spans::ThreadSpans::trace, "sslic");
}

bool write_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  serialize(out);
  return static_cast<bool>(out);
}

void reset() {
  spans::for_each_thread([](spans::ThreadSpans& thread) { thread.trace.reset(); });
}

std::uint64_t dropped_events() {
  std::uint64_t total = 0;
  spans::for_each_thread([&](const spans::ThreadSpans& thread) {
    total += thread.trace.dropped();
  });
  return total;
}

#else  // !SSLIC_TRACING_ENABLED — stubs keeping every call site linkable

void arm(const std::string&) {}
void disarm() {}
bool armed() { return false; }
void set_armed(bool) {}
void set_flight_recording(bool) {}
int detail_level() { return 0; }
void set_detail_level(int) {}
void set_thread_name(const std::string&) {}
void serialize(std::ostream& os) { os << "{\"traceEvents\": []}\n"; }
bool write_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  serialize(out);
  return static_cast<bool>(out);
}
void reset() {}
std::uint64_t dropped_events() { return 0; }

#endif  // SSLIC_TRACING_ENABLED

}  // namespace sslic::trace
