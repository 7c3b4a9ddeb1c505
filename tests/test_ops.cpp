// Live ops plane: flight-recorder rings (wraparound, concurrency, reset),
// registry snapshots, heartbeat watchdog, crash-report JSON, and endpoint
// smoke tests against a real OpsServer over a loopback socket.
//
// Concurrency tests double as the TSan target for the lock-free rings
// (CI runs this binary under -DSSLIC_SANITIZE=thread, with the *Crash*
// death tests filtered out — fork-style death tests and TSan don't mix).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/flight_recorder.h"
#include "common/frame_log.h"
#include "common/ops_server.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace {

using namespace sslic;

// With -DSSLIC_OPS=OFF every ops entry point degrades to an inert stub and
// with -DSSLIC_TRACING=OFF the span macros compile away entirely; tests
// that need the real plane (or real spans feeding it) skip rather than fail
// so the compiled-out CI jobs can still run the full suite.
#define SKIP_IF_OPS_COMPILED_OUT() \
  if (!ops::compiled()) GTEST_SKIP() << "ops plane compiled out (SSLIC_OPS=OFF)"
#define SKIP_IF_NO_SPAN_SOURCE()                                   \
  if (!ops::compiled() || !trace::compiled())                      \
  GTEST_SKIP() << "needs both the ops plane and compiled-in spans"

// ---------------------------------------------------------------------------
// Minimal JSON validator: enough structure checking to assert that /varz,
// /tracez, /statusz, and the crash report are well-formed JSON documents
// without pulling in a JSON dependency. Validates the full value grammar
// (objects, arrays, strings with escapes, numbers, literals).
// ---------------------------------------------------------------------------

class JsonValidator {
 public:
  explicit JsonValidator(std::string text) : s_(std::move(text)) {}

  bool valid() {
    pos_ = 0;
    const bool ok = value();
    skip_ws();
    return ok && pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }
  bool string() {
    if (!consume('"')) return false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        ++pos_;
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool value() {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  bool object() {
    if (!consume('{')) return false;
    if (consume('}')) return true;
    do {
      skip_ws();
      if (!string() || !consume(':') || !value()) return false;
    } while (consume(','));
    return consume('}');
  }
  bool array() {
    if (!consume('[')) return false;
    if (consume(']')) return true;
    do {
      if (!value()) return false;
    } while (consume(','));
    return consume(']');
  }

  const std::string s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Raw-socket HTTP GET against 127.0.0.1 (no client library): returns the
// full response; the helpers below split status line / headers / body.
// ---------------------------------------------------------------------------

struct HttpResponse {
  int status = 0;
  std::string content_type;
  std::string body;
  bool ok = false;
};

HttpResponse http_get(int port, const std::string& path) {
  HttpResponse response;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return response;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return response;
  }
  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    raw.append(buf, static_cast<std::size_t>(n));
  ::close(fd);

  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return response;
  const std::string head = raw.substr(0, head_end);
  response.body = raw.substr(head_end + 4);
  if (std::sscanf(head.c_str(), "HTTP/1.1 %d", &response.status) != 1)
    return response;
  const std::size_t ct = head.find("Content-Type: ");
  if (ct != std::string::npos) {
    const std::size_t eol = head.find("\r\n", ct);
    response.content_type =
        head.substr(ct + 14, eol == std::string::npos ? std::string::npos
                                                      : eol - ct - 14);
  }
  response.ok = true;
  return response;
}

// ---------------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------------

TEST(FlightRecorder, CompiledAndDefaultCapacity) {
  SKIP_IF_OPS_COMPILED_OUT();
  EXPECT_GE(ops::flight_capacity_per_thread(), 256u);
}

TEST(FlightRecorder, RecordsSpansWhenEnabled) {
  SKIP_IF_NO_SPAN_SOURCE();
  ops::set_flight_enabled(true);
  ops::flight_reset();
  const std::uint64_t before = ops::flight_spans_recorded();
  for (int i = 0; i < 10; ++i) {
    SSLIC_TRACE_SCOPE("ops_test.span", i);
  }
  EXPECT_GE(ops::flight_spans_recorded(), before + 10);
  std::string chrome;
  ops::flight_serialize_chrome(chrome);
  EXPECT_NE(chrome.find("ops_test.span"), std::string::npos);
  JsonValidator validator(chrome);
  EXPECT_TRUE(validator.valid()) << chrome.substr(0, 400);
}

TEST(FlightRecorder, DisabledRecordsNothing) {
  ops::set_flight_enabled(false);
  const std::uint64_t before = ops::flight_spans_recorded();
  for (int i = 0; i < 10; ++i) {
    SSLIC_TRACE_SCOPE("ops_test.disabled");
  }
  EXPECT_EQ(ops::flight_spans_recorded(), before);
  ops::set_flight_enabled(true);
}

TEST(FlightRecorder, RingWrapsAndRetainsMostRecent) {
  SKIP_IF_NO_SPAN_SOURCE();
  // A dedicated thread gets a fresh ring, so the wrap arithmetic is exact:
  // capacity + 100 spans leave exactly `capacity` retained, and the
  // retained window is the most recent spans (names from the tail).
  ops::set_flight_enabled(true);
  const std::size_t capacity = ops::flight_capacity_per_thread();
  std::thread recorder([&] {
    for (std::size_t i = 0; i < capacity + 100; ++i) {
      SSLIC_TRACE_SCOPE("ops_test.wrap",
                        static_cast<std::int64_t>(i));
    }
  });
  recorder.join();
  std::string chrome;
  ops::flight_serialize_chrome(chrome);
  JsonValidator validator(chrome);
  EXPECT_TRUE(validator.valid());
  // The very first span (arg 0) must have been overwritten; the very last
  // (arg capacity+99) must be retained.
  EXPECT_NE(chrome.find("\"n\": " + std::to_string(capacity + 99)),
            std::string::npos);
  EXPECT_GE(ops::flight_spans_recorded(), capacity + 100);
}

TEST(FlightRecorder, ConcurrentRecordAndSerialize) {
  SKIP_IF_OPS_COMPILED_OUT();
  // TSan target: writers wrap their rings while a reader serializes and a
  // second reader writes crash reports. Torn *events* are acceptable;
  // data races are not.
  ops::set_flight_enabled(true);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        SSLIC_TRACE_SCOPE("ops_test.concurrent");
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    std::string chrome;
    ops::flight_serialize_chrome(chrome);
    JsonValidator validator(chrome);
    EXPECT_TRUE(validator.valid());
  }
  // Crash-report writer racing the recorders (what a real crash does).
  char tmpl[] = "/tmp/sslic_ops_report_XXXXXX";
  const int fd = ::mkstemp(tmpl);
  ASSERT_GE(fd, 0);
  ops::write_crash_report_to_fd(fd, SIGSEGV);
  ::close(fd);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : writers) w.join();

  std::ifstream in(tmpl);
  std::stringstream report;
  report << in.rdbuf();
  ::unlink(tmpl);
  JsonValidator validator(report.str());
  EXPECT_TRUE(validator.valid()) << report.str().substr(0, 400);
}

TEST(FlightRecorder, ResetDropsRetainedSpans) {
  SKIP_IF_OPS_COMPILED_OUT();
  ops::set_flight_enabled(true);
  {
    SSLIC_TRACE_SCOPE("ops_test.before_reset");
  }
  ops::flight_reset();
  std::string chrome;
  ops::flight_serialize_chrome(chrome);
  EXPECT_EQ(chrome.find("ops_test.before_reset"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Snapshots + heartbeat.
// ---------------------------------------------------------------------------

TEST(FlightRecorder, SnapshotCapturesRegistryAsJson) {
  SKIP_IF_OPS_COMPILED_OUT();
  telemetry::MetricsRegistry::global().counter("sslic.ops_test.snap").set(42);
  const std::uint64_t before = ops::snapshots_taken();
  ops::snapshot_now();
  EXPECT_EQ(ops::snapshots_taken(), before + 1);
  const std::string snapshot = ops::latest_snapshot();
  ASSERT_FALSE(snapshot.empty());
  EXPECT_NE(snapshot.find("sslic.ops_test.snap"), std::string::npos);
  JsonValidator validator(snapshot);
  EXPECT_TRUE(validator.valid()) << snapshot.substr(0, 400);
}

TEST(FlightRecorder, HeartbeatAgeDropsOnBeat) {
  SKIP_IF_OPS_COMPILED_OUT();
  ops::heartbeat();
  EXPECT_LT(ops::heartbeat_age_s(), 5.0);
  int status = 0;
  const std::string healthy = ops::healthz_json(/*deadline_s=*/60.0, status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(healthy.find("\"ok\""), std::string::npos);
  JsonValidator validator(healthy);
  EXPECT_TRUE(validator.valid());
  // An impossible deadline trips the watchdog.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const std::string stalled = ops::healthz_json(/*deadline_s=*/1e-9, status);
  EXPECT_EQ(status, 503);
  EXPECT_NE(stalled.find("\"stalled\""), std::string::npos);
}

TEST(OpsStatusz, IsValidJsonAndExtensible) {
  ops::register_statusz_section("ops_test_section",
                                [] { return std::string("{\"x\": 1}"); });
  const std::string body = ops::statusz_json();
  JsonValidator validator(body);
  EXPECT_TRUE(validator.valid()) << body;
  EXPECT_NE(body.find("\"version\""), std::string::npos);
  EXPECT_NE(body.find("\"ops_test_section\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Endpoint smoke tests over loopback.
// ---------------------------------------------------------------------------

class OpsServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SKIP_IF_OPS_COMPILED_OUT();
    ops::set_flight_enabled(true);
    ops::heartbeat();
    telemetry::MetricsRegistry::global()
        .counter("sslic.ops_test.endpoint")
        .set(7);
    ops::OpsServer::Options options;
    options.port = 0;  // ephemeral
    options.snapshot_period_s = 0.1;
    options.healthz_deadline_s = 300.0;
    ASSERT_TRUE(server_.start(options));
    ASSERT_GT(server_.port(), 0);
  }
  void TearDown() override { server_.stop(); }

  ops::OpsServer server_;
};

TEST_F(OpsServerTest, MetricsIsPrometheusText) {
  const HttpResponse response = http_get(server_.port(), "/metrics");
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.content_type.find("text/plain"), std::string::npos);
  EXPECT_NE(response.body.find("# TYPE sslic_ops_test_endpoint counter"),
            std::string::npos);
  EXPECT_NE(response.body.find("# HELP sslic_ops_test_endpoint"),
            std::string::npos);
  EXPECT_NE(response.body.find("sslic_ops_test_endpoint 7"), std::string::npos);
}

TEST_F(OpsServerTest, HealthzIsOkJson) {
  const HttpResponse response = http_get(server_.port(), "/healthz");
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.content_type.find("application/json"), std::string::npos);
  JsonValidator validator(response.body);
  EXPECT_TRUE(validator.valid()) << response.body;
  EXPECT_NE(response.body.find("\"ok\""), std::string::npos);
}

TEST_F(OpsServerTest, VarzParsesAsJsonAndCarriesMetrics) {
  const HttpResponse response = http_get(server_.port(), "/varz");
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.content_type.find("application/json"), std::string::npos);
  JsonValidator validator(response.body);
  EXPECT_TRUE(validator.valid()) << response.body.substr(0, 400);
  EXPECT_NE(response.body.find("sslic.ops_test.endpoint"), std::string::npos);
}

TEST_F(OpsServerTest, StatuszAndTracezAreJson) {
  {
    SSLIC_TRACE_SCOPE("ops_test.endpoint_span");
  }
  for (const char* path : {"/statusz", "/tracez"}) {
    const HttpResponse response = http_get(server_.port(), path);
    ASSERT_TRUE(response.ok) << path;
    EXPECT_EQ(response.status, 200) << path;
    JsonValidator validator(response.body);
    EXPECT_TRUE(validator.valid()) << path;
  }
}

TEST_F(OpsServerTest, UnknownPathIs404AndIndexLists) {
  const HttpResponse missing = http_get(server_.port(), "/nope");
  ASSERT_TRUE(missing.ok);
  EXPECT_EQ(missing.status, 404);
  const HttpResponse index = http_get(server_.port(), "/");
  ASSERT_TRUE(index.ok);
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);
  EXPECT_NE(index.body.find("/tracez"), std::string::npos);
  EXPECT_NE(index.body.find("/framez"), std::string::npos);
}

TEST_F(OpsServerTest, FramezServesWideEventsAsJson) {
  ops::framez_reset();
  ops::WideFrameEvent event;
  event.trace_id = 91;
  event.engine_id = 3;
  event.stream_id = 2;
  event.sequence = 17;
  event.completed_ns = 1234;
  event.admit_wait_ms = 0.25;
  event.queue_ms = 0.5;
  event.batch_form_ms = 0.125;
  event.segment_ms = 4.0;
  event.callback_ms = 0.0625;
  event.e2e_ms = 4.9375;
  event.iterations = 9;
  event.isa = "avx2";
  event.warm = true;
  event.batch_frames = 2;
  ops::record_frame_event(event);

  const HttpResponse response = http_get(server_.port(), "/framez");
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.content_type.find("application/json"), std::string::npos);
  JsonValidator validator(response.body);
  EXPECT_TRUE(validator.valid()) << response.body.substr(0, 400);
  // The recent ring carries the full stage decomposition...
  EXPECT_NE(response.body.find("\"trace_id\": 91"), std::string::npos);
  for (const char* stage :
       {"\"admit_wait\":", "\"queue\":", "\"batch_form\":", "\"segment\":",
        "\"callback\":"})
    EXPECT_NE(response.body.find(stage), std::string::npos) << stage;
  EXPECT_NE(response.body.find("\"isa\": \"avx2\""), std::string::npos);
  // ...and the per-stream aggregation names the (engine, stream) pair.
  EXPECT_NE(response.body.find("\"streams\": ["), std::string::npos);
  EXPECT_NE(response.body.find("\"last_trace_id\": 91"), std::string::npos);
  ops::framez_reset();
}

TEST_F(OpsServerTest, ServesSequentialRequestsAndCounts) {
  const std::uint64_t before = server_.requests_served();
  for (int i = 0; i < 5; ++i) {
    const HttpResponse response = http_get(server_.port(), "/healthz");
    ASSERT_TRUE(response.ok);
  }
  EXPECT_GE(server_.requests_served(), before + 5);
}

TEST_F(OpsServerTest, SnapshotCadenceRunsWithoutRequests) {
  const std::uint64_t before = ops::snapshots_taken();
  std::this_thread::sleep_for(std::chrono::milliseconds(350));
  EXPECT_GT(ops::snapshots_taken(), before);
}

TEST(OpsServerLifecycle, StopIsIdempotentAndRestartable) {
  SKIP_IF_OPS_COMPILED_OUT();
  ops::OpsServer server;
  ops::OpsServer::Options options;
  options.port = 0;
  ASSERT_TRUE(server.start(options));
  EXPECT_FALSE(server.start(options));  // already running
  server.stop();
  server.stop();
  EXPECT_EQ(server.port(), -1);
  ASSERT_TRUE(server.start(options));
  EXPECT_GT(server.port(), 0);
  server.stop();
}

// Connects a raw socket that never sends a byte; -1 on failure.
int connect_idle(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(OpsServerLifecycle, IdleConnectionNeitherBlocksRequestsNorStop) {
  SKIP_IF_OPS_COMPILED_OUT();
  using std::chrono::milliseconds;
  ops::OpsServer server;
  ops::OpsServer::Options options;
  options.port = 0;
  ASSERT_TRUE(server.start(options));
  const int port = server.port();

  // The server takes the silent client first; /healthz must still be
  // answered once the request deadline drops it. On failure the idle
  // socket is closed, which frees the server, so the test cannot hang.
  const int idle = connect_idle(port);
  ASSERT_GE(idle, 0);
  std::this_thread::sleep_for(milliseconds(100));
  auto healthz = std::async(std::launch::async,
                            [port] { return http_get(port, "/healthz"); });
  const auto answer_bound =
      milliseconds(ops::OpsServer::kRequestDeadlineMs + 3000);
  if (healthz.wait_for(answer_bound) != std::future_status::ready) {
    ::close(idle);
    server.stop();
    FAIL() << "/healthz unanswered behind an idle connection";
  }
  EXPECT_TRUE(healthz.get().ok);
  ::close(idle);

  // stop() must end a pending read well inside the deadline.
  const int pending = connect_idle(port);
  ASSERT_GE(pending, 0);
  std::this_thread::sleep_for(milliseconds(100));
  auto stopped = std::async(std::launch::async, [&server] { server.stop(); });
  const auto stop_bound = milliseconds(ops::OpsServer::kRequestDeadlineMs / 2);
  const bool stopped_in_time =
      stopped.wait_for(stop_bound) == std::future_status::ready;
  ::close(pending);
  stopped.wait();
  EXPECT_TRUE(stopped_in_time) << "stop() waited on an idle connection";
  EXPECT_FALSE(server.running());
}

// ---------------------------------------------------------------------------
// Crash-dump death tests (filtered out under TSan).
// ---------------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(OpsCrashDeathTest, SigsegvWritesValidJsonReport) {
  SKIP_IF_OPS_COMPILED_OUT();
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string report_path =
      ::testing::TempDir() + "sslic_crash_segv.json";
  std::remove(report_path.c_str());
  EXPECT_EXIT(
      {
        ops::set_flight_enabled(true);
        {
          SSLIC_TRACE_SCOPE("ops_test.pre_crash");
        }
        ops::snapshot_now();
        ops::install_crash_handler(report_path);
        std::raise(SIGSEGV);
      },
      ::testing::KilledBySignal(SIGSEGV), "crash report written");
  const std::string report = read_file(report_path);
  ASSERT_FALSE(report.empty());
  JsonValidator validator(report);
  EXPECT_TRUE(validator.valid()) << report.substr(0, 400);
  EXPECT_NE(report.find("\"SIGSEGV\""), std::string::npos);
  if (trace::compiled()) {
    EXPECT_NE(report.find("ops_test.pre_crash"), std::string::npos);
  }
  EXPECT_NE(report.find("\"registry\""), std::string::npos);
  std::remove(report_path.c_str());
}

TEST(OpsCrashDeathTest, FatalCheckFunnelsThroughSigabrtWithReason) {
  SKIP_IF_OPS_COMPILED_OUT();
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string report_path =
      ::testing::TempDir() + "sslic_crash_check.json";
  std::remove(report_path.c_str());
  EXPECT_EXIT(
      {
        ops::install_crash_handler(report_path);
        // Uncaught ContractViolation -> std::terminate hook -> abort():
        // the report must carry the CHECK message as the crash reason.
        // Thrown from a worker thread so the death-test harness (which
        // wraps this statement in a try/catch) cannot intercept it before
        // std::terminate runs — mirroring how a production pool thread dies.
        std::thread([] { SSLIC_CHECK(1 == 2); }).join();
      },
      ::testing::KilledBySignal(SIGABRT), "");
  const std::string report = read_file(report_path);
  ASSERT_FALSE(report.empty());
  JsonValidator validator(report);
  EXPECT_TRUE(validator.valid()) << report.substr(0, 400);
  EXPECT_NE(report.find("\"SIGABRT\""), std::string::npos);
  EXPECT_NE(report.find("1 == 2"), std::string::npos);
  std::remove(report_path.c_str());
}

}  // namespace
