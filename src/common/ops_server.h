// In-process HTTP introspection server ("live ops plane"): a dependency-free
// POSIX-socket server answering on 127.0.0.1 with the runtime state of a
// live pipeline. Mounted by long-running binaries (`video_pipeline
// --ops-port`, `bench/tiled_streaming --ops-port`, or `SSLIC_OPS_PORT` in
// the environment for anything else).
//
// Endpoints:
//   /metrics  Prometheus text exposition (version 0.0.4) straight from the
//             global telemetry registry — the primary scrape path (the soak
//             textfile is a fallback for scrape-file collectors).
//   /healthz  Liveness JSON; reports the heartbeat age and flips to HTTP
//             503 when a configured watchdog deadline is exceeded.
//   /varz     The full registry as JSON (every counter/gauge/histogram).
//   /statusz  Build + configuration: version, compiled options, detected
//             and preferred ISA (before the kernel table's clamp to the
//             compiled backends), flight recorder and crash handler state,
//             plus pluggable sections registered by other layers
//             (register_statusz_section) without src/common depending on
//             them: src/slic's "slic" (the kernel ISA that runs, pool
//             threads) and src/engine's "engine" (per-engine stream,
//             queue, batch, frame, shed and drop counts and limits).
//   /tracez   The flight recorder's retained spans as Chrome trace-event
//             JSON (open in Perfetto to see the last seconds of work).
//
// Design: one background thread, poll() over {listen socket, wake pipe}
// with a timeout equal to the snapshot cadence — each timeout calls
// ops::snapshot_now(), so simply running the server keeps the crash
// handler's pre-serialized registry snapshot fresh. Connections are served
// serially (an introspection endpoint, not a web server): tiny GET parse,
// one write, Connection: close. stop() tickles the wake pipe and joins.
//
// Compile-out: -DSSLIC_OPS=OFF stubs the whole class (start() returns
// false); runtime disable is simply not starting the server.
#pragma once

#ifndef SSLIC_OPS_ENABLED
#define SSLIC_OPS_ENABLED 1
#endif

#include <cstdint>
#include <functional>
#include <string>

#if SSLIC_OPS_ENABLED
#include <atomic>
#include <thread>
#endif

namespace sslic::ops {

class OpsServer {
 public:
  struct Options {
    /// TCP port on 127.0.0.1; 0 binds an ephemeral port (see port()).
    int port = 0;
    /// Seconds between registry snapshots (crash-dump freshness). Also the
    /// poll timeout, so stop() latency is bounded by it.
    double snapshot_period_s = 1.0;
    /// /healthz reports "stalled" + HTTP 503 when the heartbeat is older
    /// than this; 0 disables the watchdog (healthz is then always ok).
    double healthz_deadline_s = 0.0;
  };

  OpsServer() = default;
  ~OpsServer();

  OpsServer(const OpsServer&) = delete;
  OpsServer& operator=(const OpsServer&) = delete;

  /// Binds, listens, and launches the serving thread. Returns false if the
  /// socket setup fails, the server is already running, or the ops plane is
  /// compiled out.
  bool start(const Options& options);

  /// Stops the serving thread and closes the socket (idempotent).
  void stop();

  [[nodiscard]] bool running() const;

  /// The bound port (resolves ephemeral binds), or -1 when not running.
  [[nodiscard]] int port() const;

  /// Requests served since start().
  [[nodiscard]] std::uint64_t requests_served() const;

#if SSLIC_OPS_ENABLED
 private:
  void serve_loop();
  void handle_connection(int fd);

  Options options_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  int port_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::thread thread_;
#endif
};

/// Registers (or replaces) a /statusz section: `provider` returns a JSON
/// *value* (object/string/number) emitted under `"key"` in the /statusz
/// body. Called at wiring time, not per request; providers run on the
/// serving thread and must be thread-safe.
void register_statusz_section(const std::string& key,
                              std::function<std::string()> provider);

/// The /statusz body (exposed for tests and --metrics style dumps).
std::string statusz_json();

/// The /healthz body; `http_status` receives 200 or 503. Only a stalled
/// heartbeat (no progress past `deadline_s`) produces 503; a burning SLO
/// (common/slo.h) reports `"status": "degraded"` with an `"slo"` section
/// while the HTTP status stays 200 — quality degradation must not eject an
/// instance that is still making progress.
std::string healthz_json(double deadline_s, int& http_status);

/// Process-wide server for the SSLIC_OPS_PORT convenience path.
OpsServer& global_server();

/// Starts global_server() on `SSLIC_OPS_PORT` when that variable is set
/// (returns true only when a server actually started). `deadline_s`
/// configures the /healthz watchdog. Idempotent.
bool start_global_from_env(double healthz_deadline_s = 0.0);

}  // namespace sslic::ops
