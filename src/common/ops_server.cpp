#include "common/ops_server.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <utility>

#if SSLIC_OPS_ENABLED
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "common/flight_recorder.h"
#include "common/frame_log.h"
#include "common/logging.h"
#include "common/simd.h"
#include "common/slo.h"
#include "common/telemetry.h"
#include "common/trace.h"

#ifndef SSLIC_VERSION_STRING
#define SSLIC_VERSION_STRING "dev"
#endif

namespace sslic::ops {

namespace {

std::mutex g_statusz_mutex;
std::map<std::string, std::function<std::string()>>& statusz_sections() {
  static std::map<std::string, std::function<std::string()>> sections;
  return sections;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

void register_statusz_section(const std::string& key,
                              std::function<std::string()> provider) {
  const std::lock_guard<std::mutex> lock(g_statusz_mutex);
  statusz_sections()[key] = std::move(provider);
}

std::string statusz_json() {
  std::string body = "{\n";
  body += "  \"version\": \"" SSLIC_VERSION_STRING "\",\n";
  body += "  \"tracing_compiled\": ";
  body += trace::compiled() ? "true" : "false";
  body += ",\n  \"ops_compiled\": ";
  body += compiled() ? "true" : "false";
  body += ",\n  \"simd\": {\"detected\": \"";
  body += json_escape(simd::isa_name(simd::detect_cpu_isa()));
  body += "\", \"preferred\": \"";
  body += json_escape(simd::isa_name(simd::preferred_isa()));
  body += "\"},\n  \"flight\": {\"enabled\": ";
  body += flight_enabled() ? "true" : "false";
  body += ", \"threads\": " + std::to_string(flight_threads());
  body += ", \"capacity_per_thread\": " +
          std::to_string(flight_capacity_per_thread());
  body += ", \"spans_recorded\": " + std::to_string(flight_spans_recorded());
  body += ", \"snapshots_taken\": " + std::to_string(snapshots_taken());
  body += "},\n  \"crash_handler\": {\"installed\": ";
  body += crash_handler_installed() ? "true" : "false";
  body += ", \"path\": \"";
  body += json_escape(crash_dump_path());
  body += "\"}";
  {
    const std::lock_guard<std::mutex> lock(g_statusz_mutex);
    for (const auto& [key, provider] : statusz_sections()) {
      body += ",\n  \"" + json_escape(key) + "\": ";
      body += provider ? provider() : "null";
    }
  }
  body += "\n}\n";
  return body;
}

std::string healthz_json(double deadline_s, int& http_status) {
  const double age = heartbeat_age_s();
  const bool stalled = deadline_s > 0.0 && age > deadline_s;
  // SLO burn is a *degraded-but-200* signal: the service is still making
  // progress (no watchdog trip) but failing its latency objective. Only a
  // stalled heartbeat — no progress at all — turns the HTTP status to 503,
  // so load balancers keep routing to a degraded-but-alive instance.
  const SloSummary slo = slo_summary();
  const bool degraded = !stalled && slo.burning > 0;
  http_status = stalled ? 503 : 200;
  const char* status = stalled ? "stalled" : degraded ? "degraded" : "ok";
  char buf[224];
  std::string body;
  if (age == std::numeric_limits<double>::infinity() || age != age) {
    std::snprintf(buf, sizeof(buf),
                  "{\"status\": \"%s\", \"heartbeat_age_s\": null, "
                  "\"deadline_s\": %.3f, \"uptime_ns\": %llu",
                  status, deadline_s,
                  static_cast<unsigned long long>(trace::now_ns()));
  } else {
    std::snprintf(buf, sizeof(buf),
                  "{\"status\": \"%s\", \"heartbeat_age_s\": %.3f, "
                  "\"deadline_s\": %.3f, \"uptime_ns\": %llu",
                  status, age, deadline_s,
                  static_cast<unsigned long long>(trace::now_ns()));
  }
  body = buf;
  if (slo.objectives > 0) {
    std::snprintf(buf, sizeof(buf),
                  ", \"slo\": {\"objectives\": %zu, \"burning\": %zu, "
                  "\"max_burn_rate\": %.4f, \"worst\": \"",
                  slo.objectives, slo.burning, slo.max_burn_rate);
    body += buf;
    body += json_escape(slo.worst);
    body += "\"}";
  }
  body += "}\n";
  return body;
}

#if SSLIC_OPS_ENABLED

namespace {

constexpr const char* kIndexBody =
    "sslic ops plane\n"
    "  /metrics  Prometheus text exposition\n"
    "  /healthz  liveness + heartbeat watchdog\n"
    "  /varz     telemetry registry as JSON\n"
    "  /statusz  build + configuration\n"
    "  /tracez   flight recorder (Chrome trace JSON)\n"
    "  /framez   per-frame wide events (recent ring + per-stream stages)\n";

std::string http_response(int status, const char* content_type,
                          const std::string& body) {
  const char* reason = status == 200   ? "OK"
                       : status == 404 ? "Not Found"
                       : status == 503 ? "Service Unavailable"
                                       : "Error";
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

void write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::send(fd, data.data() + done, data.size() - done,
                             MSG_NOSIGNAL);
    if (n <= 0) return;
    done += static_cast<std::size_t>(n);
  }
}

}  // namespace

OpsServer::~OpsServer() { stop(); }

bool OpsServer::start(const Options& options) {
  if (running_.load(std::memory_order_acquire)) return false;
  options_ = options;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options.port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return false;
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    ::close(fd);
    return false;
  }
  if (::pipe(wake_pipe_) != 0) {
    ::close(fd);
    return false;
  }
  listen_fd_ = fd;
  port_ = static_cast<int>(ntohs(bound.sin_port));
  requests_.store(0, std::memory_order_relaxed);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  SSLIC_INFO("[ops] serving on http://127.0.0.1:" << port_);
  return true;
}

void OpsServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  const char byte = 'q';
  static_cast<void>(::write(wake_pipe_[1], &byte, 1));
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  listen_fd_ = -1;
  wake_pipe_[0] = wake_pipe_[1] = -1;
  port_ = -1;
}

bool OpsServer::running() const {
  return running_.load(std::memory_order_acquire);
}

int OpsServer::port() const {
  return running() ? port_ : -1;
}

std::uint64_t OpsServer::requests_served() const {
  return requests_.load(std::memory_order_relaxed);
}

void OpsServer::serve_loop() {
  trace::set_thread_name("ops_server");
  const int timeout_ms = options_.snapshot_period_s > 0.0
                             ? static_cast<int>(options_.snapshot_period_s * 1e3)
                             : -1;
  pollfd fds[2];
  fds[0].fd = listen_fd_;
  fds[0].events = POLLIN;
  fds[1].fd = wake_pipe_[0];
  fds[1].events = POLLIN;
  // Take an immediate snapshot so a crash in the first poll interval
  // already has registry state to dump.
  snapshot_now();
  while (running_.load(std::memory_order_acquire)) {
    fds[0].revents = fds[1].revents = 0;
    const int ready = ::poll(fds, 2, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {  // snapshot cadence
      snapshot_now();
      continue;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // stop() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    handle_connection(client);
    ::close(client);
  }
}

void OpsServer::handle_connection(int fd) {
  // Read until the end of the request head (or a small cap — any legal GET
  // for this server fits well inside it).
  char request[4096];
  std::size_t got = 0;
  while (got < sizeof(request) - 1) {
    const ssize_t n = ::recv(fd, request + got, sizeof(request) - 1 - got, 0);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
    request[got] = '\0';
    if (std::strstr(request, "\r\n\r\n") != nullptr ||
        std::strstr(request, "\n\n") != nullptr)
      break;
  }
  request[got] = '\0';
  if (std::strncmp(request, "GET ", 4) != 0) {
    write_all(fd, http_response(404, "text/plain; charset=utf-8",
                                "only GET is supported\n"));
    return;
  }
  const char* path_begin = request + 4;
  const char* path_end = path_begin;
  while (*path_end != '\0' && *path_end != ' ' && *path_end != '?' &&
         *path_end != '\r' && *path_end != '\n')
    ++path_end;
  const std::string path(path_begin, path_end);
  requests_.fetch_add(1, std::memory_order_relaxed);
  telemetry::MetricsRegistry::global().counter("sslic.ops.requests").add();

  if (path == "/metrics") {
    write_all(fd, http_response(
                      200, "text/plain; version=0.0.4; charset=utf-8",
                      telemetry::MetricsRegistry::global().export_prometheus()));
  } else if (path == "/healthz") {
    int status = 200;
    const std::string body = healthz_json(options_.healthz_deadline_s, status);
    write_all(fd, http_response(status, "application/json", body));
  } else if (path == "/varz") {
    telemetry::JsonSink sink;
    telemetry::MetricsRegistry::global().flush_to(sink);
    const std::string body =
        "{\"timestamp_ns\": " + std::to_string(trace::now_ns()) +
        ", \"metrics\": " + sink.text() + "}\n";
    write_all(fd, http_response(200, "application/json", body));
  } else if (path == "/statusz") {
    write_all(fd, http_response(200, "application/json", statusz_json()));
  } else if (path == "/tracez") {
    std::string body;
    flight_serialize_chrome(body);
    write_all(fd, http_response(200, "application/json", body));
  } else if (path == "/framez") {
    write_all(fd, http_response(200, "application/json", framez_json()));
  } else if (path == "/" || path.empty()) {
    write_all(fd, http_response(200, "text/plain; charset=utf-8", kIndexBody));
  } else {
    write_all(fd, http_response(404, "text/plain; charset=utf-8",
                                "unknown endpoint; see /\n"));
  }
}

#else  // !SSLIC_OPS_ENABLED — stubs keeping every call site linkable

OpsServer::~OpsServer() = default;
bool OpsServer::start(const Options&) { return false; }
void OpsServer::stop() {}
bool OpsServer::running() const { return false; }
int OpsServer::port() const { return -1; }
std::uint64_t OpsServer::requests_served() const { return 0; }

#endif  // SSLIC_OPS_ENABLED

OpsServer& global_server() {
  static OpsServer server;
  return server;
}

bool start_global_from_env(double healthz_deadline_s) {
  if (!compiled()) return false;
  const char* env = std::getenv("SSLIC_OPS_PORT");
  if (env == nullptr || *env == '\0') return false;
  if (global_server().running()) return false;
  char* end = nullptr;
  const long port = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || port < 0 || port > 65535) {
    SSLIC_WARN("[ops] ignoring invalid SSLIC_OPS_PORT=" << env);
    return false;
  }
  OpsServer::Options options;
  options.port = static_cast<int>(port);
  options.healthz_deadline_s = healthz_deadline_s;
  return global_server().start(options);
}

}  // namespace sslic::ops
