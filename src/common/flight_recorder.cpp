#include "common/flight_recorder.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>

#if SSLIC_OPS_ENABLED
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>
#endif

#include "common/span_ring.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace sslic::ops {

#if SSLIC_OPS_ENABLED

namespace {

// ---------------------------------------------------------------------------
// Pre-serialized registry snapshots (what the crash handler dumps verbatim).
// ---------------------------------------------------------------------------

constexpr std::size_t kSnapshotBytes = 256 * 1024;

/// Double buffer with per-buffer version counters (even = stable). The
/// writer fills the non-current buffer and flips `g_snapshot_current`; the
/// crash handler verifies the version is even and unchanged around its
/// read, falling back to the other buffer on a torn snapshot.
struct SnapshotBuffer {
  std::atomic<std::uint32_t> version{0};
  std::atomic<std::size_t> length{0};
  char* data = nullptr;
};

SnapshotBuffer g_snapshots[2];
std::atomic<int> g_snapshot_current{-1};
std::atomic<std::uint64_t> g_snapshot_count{0};
std::mutex g_snapshot_mutex;  // serializes writers only

// ---------------------------------------------------------------------------
// Heartbeat.
// ---------------------------------------------------------------------------

std::atomic<std::uint64_t> g_heartbeat_ns{0};  // 0 = never beaten

// ---------------------------------------------------------------------------
// Crash handler state (all plain/atomic statics: the handler may touch
// nothing that locks or allocates).
// ---------------------------------------------------------------------------

constexpr std::size_t kPathBytes = 512;
char g_crash_path[kPathBytes];
std::atomic<bool> g_crash_installed{false};
std::atomic<bool> g_crash_in_progress{false};
char g_terminate_reason[512];

// --- Async-signal-safe formatting: loops and write(2) only. ---

void ss_write(int fd, const char* data, std::size_t length) {
  std::size_t done = 0;
  while (done < length) {
    const ssize_t n = ::write(fd, data + done, length - done);
    if (n <= 0) return;
    done += static_cast<std::size_t>(n);
  }
}

void ss_puts(int fd, const char* s) {
  std::size_t n = 0;
  while (s[n] != '\0') ++n;
  ss_write(fd, s, n);
}

/// Formats `v` into `buf` (at least 21 bytes); returns the length.
std::size_t ss_format_u64(char* buf, std::uint64_t v) {
  char tmp[24];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (std::size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

void ss_put_u64(int fd, std::uint64_t v) {
  char buf[24];
  ss_write(fd, buf, ss_format_u64(buf, v));
}

void ss_put_i64(int fd, std::int64_t v) {
  if (v < 0) {
    ss_puts(fd, "-");
    ss_put_u64(fd, static_cast<std::uint64_t>(-(v + 1)) + 1);
  } else {
    ss_put_u64(fd, static_cast<std::uint64_t>(v));
  }
}

/// Writes `s` JSON-escaped (quotes/backslashes escaped, control characters
/// dropped). `s` may be any NUL-terminated buffer the handler can read.
void ss_put_json_string(int fd, const char* s) {
  ss_puts(fd, "\"");
  for (std::size_t i = 0; s[i] != '\0'; ++i) {
    const char c = s[i];
    if (c == '"' || c == '\\') {
      const char escaped[2] = {'\\', c};
      ss_write(fd, escaped, 2);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      ss_write(fd, &c, 1);
    }
  }
  ss_puts(fd, "\"");
}

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    default: return "UNKNOWN";
  }
}

/// Dumps the stable pre-serialized registry snapshot, or `null` when no
/// snapshot was ever taken (or both buffers are mid-write).
void ss_put_registry_snapshot(int fd) {
  const int current = g_snapshot_current.load(std::memory_order_acquire);
  if (current < 0) {
    ss_puts(fd, "null");
    return;
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    const SnapshotBuffer& buf = g_snapshots[(current + attempt) % 2];
    const std::uint32_t before = buf.version.load(std::memory_order_acquire);
    if (before == 0 || (before & 1u) != 0) continue;  // empty or mid-write
    const std::size_t length = buf.length.load(std::memory_order_acquire);
    if (buf.data == nullptr || length == 0) continue;
    ss_write(fd, buf.data, length);
    return;
  }
  ss_puts(fd, "null");
}

void crash_signal_handler(int sig) {
  // One report per process: a second fatal signal (possibly raised by this
  // very handler) must fall straight through to the default action, which
  // SA_RESETHAND already restored.
  if (g_crash_in_progress.exchange(true, std::memory_order_acq_rel)) {
    raise(sig);
    return;
  }
  const int fd = ::open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    write_crash_report_to_fd(fd, sig);
    ::close(fd);
    ss_puts(2, "[flight] crash report written: ");
    ss_puts(2, g_crash_path);
    ss_puts(2, "\n");
  }
  // Re-raise: the disposition is back to default (SA_RESETHAND), so the
  // pending signal terminates the process with the true signal status once
  // the handler returns.
  raise(sig);
}

[[noreturn]] void flight_terminate_handler() {
  // Preserve the reason (e.g. an uncaught ContractViolation's message) in
  // static storage, then funnel through abort() so the SIGABRT crash path
  // writes the report with the message embedded.
  const char* reason = "std::terminate";
  if (std::current_exception() != nullptr) {
    try {
      throw;
    } catch (const std::exception& e) {
      reason = e.what();
    } catch (...) {
      reason = "unknown exception";
    }
  }
  std::size_t n = 0;
  while (reason[n] != '\0' && n < sizeof(g_terminate_reason) - 1) {
    g_terminate_reason[n] = reason[n];
    ++n;
  }
  g_terminate_reason[n] = '\0';
  std::abort();
}

/// Arms flight recording (and the crash handler) at startup so every
/// binary participates without code changes, mirroring trace.cpp's
/// TraceEnvInit.
const struct FlightEnvInit {
  FlightEnvInit() {
    bool enabled = true;
    if (const char* env = std::getenv("SSLIC_FLIGHT"))
      enabled = !(env[0] == '0' && env[1] == '\0');
    if (enabled) trace::set_flight_recording(true);
    // Initialize the trace epoch now: the crash handler calls now_ns(),
    // whose lazily-constructed epoch must never first-initialize inside a
    // signal handler.
    static_cast<void>(trace::now_ns());
    if (const char* env = std::getenv("SSLIC_CRASH_DUMP");
        env != nullptr && *env != '\0')
      install_crash_handler(env);
  }
} g_flight_env_init;

}  // namespace

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

bool flight_enabled() {
#if SSLIC_TRACING_ENABLED
  return (trace::detail::g_mode.load(std::memory_order_relaxed) &
          trace::detail::kFlightBit) != 0;
#else
  return false;
#endif
}

void set_flight_enabled(bool enabled) {
  trace::set_flight_recording(enabled);
}

std::size_t flight_capacity_per_thread() { return kFlightCapacity; }

std::uint64_t flight_spans_recorded() {
  std::uint64_t total = 0;
  spans::for_each_thread([&](const spans::ThreadSpans& thread) {
    total += thread.flight.written();
  });
  return total;
}

std::size_t flight_threads() {
  std::size_t rings = 0;
  spans::for_each_thread([&](const spans::ThreadSpans& thread) {
    if (thread.flight.allocated()) ++rings;
  });
  return rings;
}

void flight_serialize_chrome(std::string& out) {
  std::ostringstream os;
  spans::write_chrome(os, &spans::ThreadSpans::flight, "flight");
  out += os.str();
}

void flight_reset() {
  spans::for_each_thread([](spans::ThreadSpans& thread) { thread.flight.reset(); });
}

void snapshot_now() {
  const std::lock_guard<std::mutex> lock(g_snapshot_mutex);
  telemetry::JsonSink sink;
  telemetry::MetricsRegistry::global().flush_to(sink);
  std::string body = "{\"timestamp_ns\": " + std::to_string(trace::now_ns()) +
                     ", \"metrics\": " + sink.text() + "}";
  const int current = g_snapshot_current.load(std::memory_order_relaxed);
  const int target = current < 0 ? 0 : 1 - current;
  SnapshotBuffer& buf = g_snapshots[target];
  if (buf.data == nullptr) {
    buf.data = static_cast<char*>(std::malloc(kSnapshotBytes));
    if (buf.data == nullptr) return;
  }
  // A snapshot that does not fit is truncated into a *valid* JSON object:
  // better a partial registry in the crash report than a broken document.
  if (body.size() > kSnapshotBytes - 32) {
    body.resize(kSnapshotBytes - 32);
    const std::size_t cut = body.find_last_of(',');
    body.resize(cut == std::string::npos ? 0 : cut);
    body += "\n}, \"truncated\": true}";
  }
  buf.version.fetch_add(1, std::memory_order_acq_rel);  // odd: writing
  std::memcpy(buf.data, body.data(), body.size());
  buf.length.store(body.size(), std::memory_order_release);
  buf.version.fetch_add(1, std::memory_order_release);  // even: stable
  g_snapshot_current.store(target, std::memory_order_release);
  g_snapshot_count.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t snapshots_taken() {
  return g_snapshot_count.load(std::memory_order_relaxed);
}

std::string latest_snapshot() {
  const std::lock_guard<std::mutex> lock(g_snapshot_mutex);
  const int current = g_snapshot_current.load(std::memory_order_acquire);
  if (current < 0) return {};
  const SnapshotBuffer& buf = g_snapshots[current];
  if (buf.data == nullptr) return {};
  return std::string(buf.data, buf.length.load(std::memory_order_acquire));
}

void heartbeat() {
  // now_ns() is relative to the trace epoch and can legitimately be 0 on
  // the very first call; offset by 1 so 0 stays the "never" sentinel.
  g_heartbeat_ns.store(trace::now_ns() + 1, std::memory_order_relaxed);
}

double heartbeat_age_s() {
  const std::uint64_t beat = g_heartbeat_ns.load(std::memory_order_relaxed);
  if (beat == 0) return std::numeric_limits<double>::infinity();
  const std::uint64_t now = trace::now_ns() + 1;
  return now <= beat ? 0.0 : static_cast<double>(now - beat) / 1e9;
}

bool install_crash_handler(const std::string& path) {
  if (path.empty() || path.size() >= kPathBytes) return false;
  std::memcpy(g_crash_path, path.c_str(), path.size() + 1);
  static_cast<void>(trace::now_ns());  // pre-initialize the clock epoch
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = &crash_signal_handler;
  sigemptyset(&action.sa_mask);
  // SA_RESETHAND: the disposition reverts to default on entry, so the
  // handler's re-raise (or a crash inside the handler itself) terminates
  // with the genuine signal instead of recursing.
  action.sa_flags = static_cast<int>(SA_RESETHAND);
  bool ok = true;
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL})
    ok = sigaction(sig, &action, nullptr) == 0 && ok;
  std::set_terminate(&flight_terminate_handler);
  g_crash_installed.store(ok, std::memory_order_release);
  return ok;
}

bool crash_handler_installed() {
  return g_crash_installed.load(std::memory_order_acquire);
}

const char* crash_dump_path() {
  return crash_handler_installed() ? g_crash_path : "";
}

void write_crash_report_to_fd(int fd, int signal_number) {
  ss_puts(fd, "{\n\"crash\": {\"signal\": ");
  ss_put_i64(fd, signal_number);
  ss_puts(fd, ", \"signal_name\": ");
  ss_put_json_string(fd, signal_name(signal_number));
  ss_puts(fd, ", \"pid\": ");
  ss_put_i64(fd, static_cast<std::int64_t>(::getpid()));
  ss_puts(fd, ", \"uptime_ns\": ");
  ss_put_u64(fd, trace::now_ns());
  ss_puts(fd, ", \"reason\": ");
  ss_put_json_string(fd, g_terminate_reason);
  ss_puts(fd, "},\n\"flight\": {\"spans_recorded\": ");
  ss_put_u64(fd, flight_spans_recorded());
  ss_puts(fd, ", \"threads\": ");
  ss_put_u64(fd, static_cast<std::uint64_t>(flight_threads()));
  ss_puts(fd, ", \"capacity_per_thread\": ");
  ss_put_u64(fd, static_cast<std::uint64_t>(kFlightCapacity));
  ss_puts(fd, ", \"snapshots_taken\": ");
  ss_put_u64(fd, g_snapshot_count.load(std::memory_order_relaxed));
  ss_puts(fd, ", \"heartbeat_ns\": ");
  ss_put_u64(fd, g_heartbeat_ns.load(std::memory_order_relaxed));
  ss_puts(fd, "},\n\"spans\": [");
  bool first = true;
  spans::for_each_thread([&](const spans::ThreadSpans& thread) {
    thread.flight.for_each([&](const spans::Span& span) {
      ss_puts(fd, first ? "\n" : ",\n");
      first = false;
      ss_puts(fd, "{\"tid\": ");
      ss_put_i64(fd, thread.tid);
      ss_puts(fd, ", \"name\": ");
      ss_put_json_string(fd, span.name);
      ss_puts(fd, ", \"begin_ns\": ");
      ss_put_u64(fd, span.begin_ns);
      ss_puts(fd, ", \"end_ns\": ");
      ss_put_u64(fd, span.end_ns);
      if (span.arg != trace::kNoArg) {
        ss_puts(fd, ", \"arg\": ");
        ss_put_i64(fd, span.arg);
      }
      if (span.trace_id != 0) {
        ss_puts(fd, ", \"trace_id\": ");
        ss_put_u64(fd, span.trace_id);
      }
      ss_puts(fd, "}");
    });
  });
  ss_puts(fd, first ? "" : "\n");
  ss_puts(fd, "],\n\"registry\": ");
  ss_put_registry_snapshot(fd);
  ss_puts(fd, "\n}\n");
}

#else  // !SSLIC_OPS_ENABLED — stubs keeping every call site linkable

bool flight_enabled() { return false; }
void set_flight_enabled(bool) {}
std::size_t flight_capacity_per_thread() { return 0; }
std::uint64_t flight_spans_recorded() { return 0; }
std::size_t flight_threads() { return 0; }
void flight_serialize_chrome(std::string& out) {
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": []}\n";
}
void flight_reset() {}
void snapshot_now() {}
std::uint64_t snapshots_taken() { return 0; }
std::string latest_snapshot() { return {}; }
void heartbeat() {}
double heartbeat_age_s() { return std::numeric_limits<double>::infinity(); }
bool install_crash_handler(const std::string&) { return false; }
bool crash_handler_installed() { return false; }
const char* crash_dump_path() { return ""; }
void write_crash_report_to_fd(int, int) {}

#endif  // SSLIC_OPS_ENABLED

}  // namespace sslic::ops
