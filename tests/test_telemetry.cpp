// Tests for the unified telemetry layer: metrics registry (counters,
// gauges, percentile histograms), the ThreadPool exporter, and the
// tracing-span session (recording, nesting, stop-on-full retention, Chrome
// trace-event serialization, stage spans agreeing with the Instrumentation
// stage times). Telemetry must observe without perturbing: a traced golden
// run matches an untraced one byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "color/color_convert.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "dataset/synthetic.h"
#include "slic/slic_baseline.h"
#include "slic/subsampled.h"
#include "slic/temporal.h"
#include "slic/tiled.h"

namespace sslic {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::MetricsRegistry;

TEST(Counter, AddAndSet) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.set(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(1.5);
  g.add(2.25);
  EXPECT_DOUBLE_EQ(g.value(), 3.75);
}

TEST(Histogram, BasicStatistics) {
  Histogram h(telemetry::linear_buckets(1.0, 1.0, 10));
  for (const double v : {2.5, 4.5, 6.5}) h.record(v);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 13.5);
  EXPECT_DOUBLE_EQ(h.mean(), 4.5);
  EXPECT_DOUBLE_EQ(h.min(), 2.5);
  EXPECT_DOUBLE_EQ(h.max(), 6.5);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h(telemetry::linear_buckets(1.0, 1.0, 4));
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

// Percentiles against the sorted-vector nearest-rank reference. With one
// integer value per unit-wide bucket, the interpolated estimate must land
// within one bucket width of the exact answer.
TEST(Histogram, PercentilesMatchSortedReference) {
  Histogram h(telemetry::linear_buckets(0.5, 1.0, 1000));
  std::vector<double> values;
  // Deterministic non-uniform sample: quadratic spread over [1, 1000].
  for (int i = 1; i <= 2000; ++i) {
    const double v = 1.0 + 999.0 * (i * i) / (2000.0 * 2000.0);
    values.push_back(std::floor(v));
    h.record(std::floor(v));
  }
  std::sort(values.begin(), values.end());
  for (const double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
    const std::size_t rank = static_cast<std::size_t>(std::max(
        1.0, std::ceil(p / 100.0 * static_cast<double>(values.size()))));
    const double reference = values[rank - 1];
    EXPECT_NEAR(h.percentile(p), reference, 1.0) << "p" << p;
  }
  // The extremes interpolate within the first/last occupied bucket, so they
  // match min/max only to bucket resolution.
  EXPECT_NEAR(h.percentile(0.0), h.min(), 1.0);
  EXPECT_NEAR(h.percentile(100.0), h.max(), 1.0);
}

TEST(Histogram, OverflowBucketClampsToObservedMax) {
  Histogram h(telemetry::linear_buckets(1.0, 1.0, 4));  // last bound: 4.0
  h.record(1000.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 1000.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

TEST(Histogram, ExponentialBucketsAreStrictlyIncreasing) {
  const std::vector<double> bounds = telemetry::exponential_buckets(0.01, 10000.0, 128);
  ASSERT_EQ(bounds.size(), 128u);
  EXPECT_DOUBLE_EQ(bounds.front(), 0.01);
  EXPECT_NEAR(bounds.back(), 10000.0, 1e-6);
  for (std::size_t i = 1; i < bounds.size(); ++i)
    EXPECT_GT(bounds[i], bounds[i - 1]);
}

// --- Histogram exemplars: per-bucket (value, trace id) pairs linking a
// /metrics percentile to the one frame that produced it (DESIGN.md §4k). ---

// linear_buckets(1.0, 1.0, 4) gives bounds {1,2,3,4}: bucket 0 holds
// values <= 1, bucket 1 (1,2], ..., bucket 4 is the overflow bucket.
TEST(HistogramExemplar, BucketKeepsLastTraceIdAndValue) {
  Histogram h(telemetry::linear_buckets(1.0, 1.0, 4));
  h.record(0.5, 101);
  h.record(1.5, 202);
  h.record(1.75, 203);    // same bucket as 1.5: last writer wins
  h.record(1000.0, 404);  // overflow bucket

  const telemetry::Exemplar e0 = h.exemplar(0);
  ASSERT_TRUE(e0.valid());
  EXPECT_EQ(e0.trace_id, 101u);
  EXPECT_DOUBLE_EQ(e0.value, 0.5);

  const telemetry::Exemplar e1 = h.exemplar(1);
  ASSERT_TRUE(e1.valid());
  EXPECT_EQ(e1.trace_id, 203u);
  EXPECT_DOUBLE_EQ(e1.value, 1.75);

  EXPECT_FALSE(h.exemplar(2).valid());  // never written
  EXPECT_FALSE(h.exemplar(99).valid());  // out of range, not UB

  const telemetry::Exemplar overflow = h.exemplar(4);
  ASSERT_TRUE(overflow.valid());
  EXPECT_EQ(overflow.trace_id, 404u);

  // A tail query resolves to the overflow bucket's exemplar — the p99
  // outlier's own trace id, not a random mid-distribution frame.
  const telemetry::Exemplar p99 = h.exemplar_near_percentile(99.0);
  ASSERT_TRUE(p99.valid());
  EXPECT_EQ(p99.trace_id, 404u);
}

TEST(HistogramExemplar, RecordPicksUpAmbientFrameContext) {
  Histogram h(telemetry::linear_buckets(1.0, 1.0, 4));
  {
    const trace::FrameScope scope(777);
    h.record(0.5);  // one-argument record: ambient thread-local id
  }
  h.record(2.5);  // no ambient context: bucket 2 records no exemplar
  const telemetry::Exemplar e = h.exemplar(0);
  ASSERT_TRUE(e.valid());
  EXPECT_EQ(e.trace_id, 777u);
  EXPECT_FALSE(h.exemplar(2).valid());
  EXPECT_EQ(trace::current_trace_id(), 0u);  // FrameScope restored
}

// Concurrent writers against a spinning reader on one bucket: the seqlock
// must never surface a torn (value, trace_id) pair. Every record encodes its
// id in its value, so any mismatch is detectable. Runs under TSan in CI.
TEST(HistogramExemplar, ConcurrentRecordingNeverTearsPairs) {
  Histogram h(telemetry::linear_buckets(1.0, 1.0, 4));
  const auto encode = [](std::uint64_t id) {
    return 1.0 / static_cast<double>(id % 1000 + 2);  // always in bucket 0
  };
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::atomic<int> observed{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const telemetry::Exemplar e = h.exemplar(0);
      if (!e.valid()) continue;
      observed.fetch_add(1, std::memory_order_relaxed);
      if (e.value != encode(e.trace_id))
        torn.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = 1; i <= 4000; ++i) {
        const std::uint64_t id =
            static_cast<std::uint64_t>(t) * 100000 + i;
        h.record(encode(id), id);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  // On a single-hardware-thread machine the reader may not have had a
  // slice while the writers ran; they are done now, so its next iteration
  // must observe a valid pair — wait for one before stopping it.
  while (observed.load(std::memory_order_relaxed) == 0)
    std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(observed.load(), 0);
  EXPECT_EQ(h.count(), 16000u);
  const telemetry::Exemplar last = h.exemplar(0);
  ASSERT_TRUE(last.valid());
  EXPECT_EQ(last.value, encode(last.trace_id));
}

TEST(PrometheusSink, QuantileLinesCarryExemplarSuffix) {
  MetricsRegistry registry;
  registry.histogram("sslic.test.exemplar_ms").record(4.0, 42);
  const std::string text = registry.export_prometheus();
  // The OpenMetrics-style suffix rides the quantile sample line itself.
  const std::size_t pos =
      text.find("sslic_test_exemplar_ms{quantile=\"0.99\"}");
  ASSERT_NE(pos, std::string::npos);
  const std::string line = text.substr(pos, text.find('\n', pos) - pos);
  EXPECT_NE(line.find("# {trace_id=\"42\"}"), std::string::npos) << line;
  // A histogram recorded without any frame context stays suffix-free.
  MetricsRegistry bare;
  bare.histogram("sslic.test.no_exemplar_ms").record(4.0);
  EXPECT_EQ(bare.export_prometheus().find("trace_id"), std::string::npos);
}

TEST(JsonSink, HistogramsExposeP99Exemplar) {
  MetricsRegistry registry;
  registry.histogram("sslic.test.exemplar_ms").record(4.0, 42);
  telemetry::JsonSink sink;
  registry.flush_to(sink);
  EXPECT_NE(sink.text().find("\"p99_exemplar\": {\"trace_id\": 42"),
            std::string::npos)
      << sink.text();
}

TEST(MetricsRegistry, ReturnsStableReferencesAndFlushes) {
  MetricsRegistry registry;
  Counter& c = registry.counter("sslic.test.count");
  EXPECT_EQ(&c, &registry.counter("sslic.test.count"));
  c.add(5);
  registry.gauge("sslic.test.gauge").set(2.5);
  registry.histogram("sslic.test.hist").record(10.0);

  std::map<std::string, telemetry::MetricSample> seen;
  struct CaptureSink : telemetry::TelemetrySink {
    std::map<std::string, telemetry::MetricSample>& out;
    explicit CaptureSink(std::map<std::string, telemetry::MetricSample>& o)
        : out(o) {}
    void write(const telemetry::MetricSample& sample) override {
      out[sample.name] = sample;
    }
  } sink{seen};
  registry.flush_to(sink);

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_DOUBLE_EQ(seen.at("sslic.test.count").value, 5.0);
  EXPECT_DOUBLE_EQ(seen.at("sslic.test.gauge").value, 2.5);
  EXPECT_EQ(seen.at("sslic.test.hist").count, 1u);
  EXPECT_DOUBLE_EQ(seen.at("sslic.test.hist").sum, 10.0);
}

TEST(MetricsRegistry, ConcurrentMutationFromPoolThreads) {
  MetricsRegistry registry;
  Counter& hits = registry.counter("sslic.test.hits");
  Histogram& hist = registry.histogram(
      "sslic.test.values", telemetry::linear_buckets(0.5, 1.0, 128));
  ThreadPool pool(4);
  constexpr std::size_t kChunks = 128;
  pool.run_chunks(kChunks, [&](std::size_t c) {
    hits.add();
    hist.record(static_cast<double>(c % 100) + 1.0);
  });
  EXPECT_EQ(hits.value(), kChunks);
  EXPECT_EQ(hist.count(), kChunks);
}

TEST(JsonSink, ProducesBalancedJson) {
  MetricsRegistry registry;
  registry.counter("a.count").add(3);
  registry.gauge("b.gauge").set(1.25);
  registry.histogram("c.hist").record(5.0);
  telemetry::JsonSink sink;
  registry.flush_to(sink);
  const std::string text = sink.text();
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  EXPECT_NE(text.find("\"a.count\""), std::string::npos);
  EXPECT_NE(text.find("\"b.gauge\""), std::string::npos);
  EXPECT_NE(text.find("\"c.hist\""), std::string::npos);
  EXPECT_NE(text.find("\"p99\""), std::string::npos);
}

TEST(JsonSink, NonFiniteValuesBecomeNull) {
  // JSON has no NaN/Infinity literals; a registry holding a degraded gauge
  // must still export a parseable /varz document.
  MetricsRegistry registry;
  registry.gauge("d.nan").set(std::nan(""));
  registry.gauge("d.inf").set(std::numeric_limits<double>::infinity());
  telemetry::JsonSink sink;
  registry.flush_to(sink);
  const std::string text = sink.text();
  EXPECT_NE(text.find("\"d.nan\": {\"kind\": \"gauge\", \"value\": null}"),
            std::string::npos);
  EXPECT_NE(text.find("\"d.inf\": {\"kind\": \"gauge\", \"value\": null}"),
            std::string::npos);
  // No bare non-finite literal may appear as a value.
  EXPECT_EQ(text.find(": nan"), std::string::npos);
  EXPECT_EQ(text.find(": -nan"), std::string::npos);
  EXPECT_EQ(text.find(": inf"), std::string::npos);
  EXPECT_EQ(text.find(": -inf"), std::string::npos);
}

TEST(PrometheusSink, ConformantExposition) {
  MetricsRegistry registry;
  registry.counter("sslic.video.frames").add(3);
  registry.gauge("sslic.video.fps").set(30.5);
  registry.histogram("sslic.video.frame_ms").record(4.0);
  const std::string text = registry.export_prometheus();

  // Dotted names sanitize to the Prometheus charset, with HELP lines
  // carrying the original name and TYPE lines preceding each family.
  EXPECT_NE(text.find("# HELP sslic_video_frames sslic metric sslic.video.frames"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sslic_video_frames counter"), std::string::npos);
  EXPECT_NE(text.find("sslic_video_frames 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sslic_video_fps gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sslic_video_frame_ms summary"), std::string::npos);
  EXPECT_NE(text.find("sslic_video_frame_ms{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("sslic_video_frame_ms_sum"), std::string::npos);
  EXPECT_NE(text.find("sslic_video_frame_ms_count 1"), std::string::npos);
  // Dotted originals survive only inside HELP docstrings: on every sample
  // line the metric name (the token before the first space or '{') must be
  // dot-free.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::string name = line.substr(0, line.find_first_of(" {"));
    EXPECT_EQ(name.find('.'), std::string::npos)
        << "dotted metric name leaked: " << line;
  }
}

TEST(PrometheusSink, NonFiniteValuesAndLeadingDigits) {
  MetricsRegistry registry;
  registry.gauge("9starts.with.digit").set(1.0);
  registry.gauge("sslic.test.nan").set(std::nan(""));
  registry.gauge("sslic.test.pinf").set(std::numeric_limits<double>::infinity());
  registry.gauge("sslic.test.ninf")
      .set(-std::numeric_limits<double>::infinity());
  const std::string text = registry.export_prometheus();
  EXPECT_NE(text.find("_9starts_with_digit 1"), std::string::npos);
  EXPECT_NE(text.find("sslic_test_nan NaN"), std::string::npos);
  EXPECT_NE(text.find("sslic_test_pinf +Inf"), std::string::npos);
  EXPECT_NE(text.find("sslic_test_ninf -Inf"), std::string::npos);
}

TEST(ThreadPoolStats, ChunkTotalsMatchSubmittedWork) {
  ThreadPool pool(4);
  const std::uint64_t jobs_before = pool.jobs_run();
  constexpr std::size_t kChunks = 97;
  std::atomic<int> ran{0};
  pool.run_chunks(kChunks, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), static_cast<int>(kChunks));
  EXPECT_EQ(pool.jobs_run(), jobs_before + 1);

  const std::vector<ThreadPool::WorkerStats> stats = pool.stats();
  ASSERT_EQ(stats.size(), 4u);  // slot 0 = caller, 1..3 = workers
  std::uint64_t chunks = 0;
  for (const ThreadPool::WorkerStats& s : stats) chunks += s.chunks_executed;
  // Every chunk of every job this pool ever ran is attributed to exactly
  // one slot; this pool ran exactly one job.
  EXPECT_EQ(chunks, kChunks);
}

TEST(Exporters, ThreadPoolMetricsLandInRegistry) {
  ThreadPool pool(2);
  pool.run_chunks(16, [](std::size_t) {});
  MetricsRegistry registry;
  telemetry::export_thread_pool(pool, registry);
  EXPECT_EQ(registry.counter("sslic.pool.threads").value(), 2u);
  EXPECT_EQ(registry.counter("sslic.pool.jobs").value(), 1u);
  std::uint64_t chunks = 0;
  for (int i = 0; i < 2; ++i) {
    chunks += registry
                  .counter("sslic.pool.worker." + std::to_string(i) + ".chunks")
                  .value();
  }
  EXPECT_EQ(chunks, 16u);
}

#if SSLIC_TRACING_ENABLED

/// Minimal parser for the serializer's one-event-per-line output.
struct ParsedEvent {
  std::string name;
  std::string ph;
  int tid = -1;
  double ts = -1.0;
  double dur = -1.0;
  std::int64_t arg = trace::kNoArg;
};

std::vector<ParsedEvent> parse_trace(const std::string& json) {
  const auto field = [](const std::string& line, const std::string& key,
                        std::string* out) {
    const std::string tag = "\"" + key + "\": ";
    const std::size_t pos = line.find(tag);
    if (pos == std::string::npos) return false;
    std::size_t begin = pos + tag.size();
    std::size_t end = begin;
    if (line[begin] == '"') {
      ++begin;
      end = line.find('"', begin);
    } else {
      end = line.find_first_of(",}", begin);
    }
    *out = line.substr(begin, end - begin);
    return true;
  };

  std::vector<ParsedEvent> events;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    ParsedEvent e;
    std::string value;
    if (!field(line, "ph", &value)) continue;
    e.ph = value;
    if (field(line, "name", &value)) e.name = value;
    if (field(line, "tid", &value)) e.tid = std::stoi(value);
    if (field(line, "ts", &value)) e.ts = std::stod(value);
    if (field(line, "dur", &value)) e.dur = std::stod(value);
    if (field(line, "n", &value)) e.arg = std::stoll(value);
    events.push_back(e);
  }
  return events;
}

/// Serializes the current session and returns the parsed events. Disarms
/// first so recording threads are quiescent, as serialize() requires.
std::string serialize_session() {
  trace::set_armed(false);
  std::ostringstream os;
  trace::serialize(os);
  return os.str();
}

TEST(Trace, DisarmedSpansRecordNothing) {
  trace::reset();
  trace::set_armed(false);
  { SSLIC_TRACE_SCOPE("should.not.appear"); }
  const std::vector<ParsedEvent> events = parse_trace(serialize_session());
  for (const ParsedEvent& e : events) EXPECT_NE(e.name, "should.not.appear");
}

TEST(Trace, NestedSpansPairAndContain) {
  trace::reset();
  trace::set_armed(true);
  {
    SSLIC_TRACE_SCOPE("outer", 7);
    { SSLIC_TRACE_SCOPE("inner.a"); }
    { SSLIC_TRACE_SCOPE("inner.b"); }
  }
  const std::vector<ParsedEvent> events = parse_trace(serialize_session());

  const auto find = [&](const std::string& name) -> const ParsedEvent* {
    for (const ParsedEvent& e : events)
      if (e.name == name) return &e;
    return nullptr;
  };
  const ParsedEvent* outer = find("outer");
  const ParsedEvent* inner_a = find("inner.a");
  const ParsedEvent* inner_b = find("inner.b");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner_a, nullptr);
  ASSERT_NE(inner_b, nullptr);

  EXPECT_EQ(outer->ph, "X");
  EXPECT_EQ(outer->arg, 7);
  EXPECT_EQ(outer->tid, inner_a->tid);
  // Containment, with epsilon for the µs rounding of the serializer.
  constexpr double kEps = 0.002;
  for (const ParsedEvent* inner : {inner_a, inner_b}) {
    EXPECT_GE(inner->ts, outer->ts - kEps);
    EXPECT_LE(inner->ts + inner->dur, outer->ts + outer->dur + kEps);
  }
  // inner.b begins after inner.a ends (sequential blocks).
  EXPECT_GE(inner_b->ts, inner_a->ts + inner_a->dur - kEps);
}

TEST(Trace, SpansAcrossPoolThreadsSerializeWellFormed) {
  trace::reset();
  trace::set_armed(true);
  ThreadPool pool(4);
  pool.run_chunks(64, [](std::size_t c) {
    SSLIC_TRACE_SCOPE("chunk", static_cast<std::int64_t>(c));
  });
  const std::string json = serialize_session();
  const std::vector<ParsedEvent> events = parse_trace(json);

  // Well-formed JSON shell (python -m json.tool validates this in CI).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

  std::size_t chunk_events = 0;
  std::map<int, double> last_end_by_tid;
  for (const ParsedEvent& e : events) {
    if (e.ph == "M") continue;  // thread_name metadata
    EXPECT_EQ(e.ph, "X");
    EXPECT_GE(e.ts, 0.0);
    EXPECT_GE(e.dur, 0.0);
    ASSERT_GE(e.tid, 0);
    // Per-thread completion times are strictly increasing (the recorder
    // monotonizes equal-nanosecond stamps).
    const double end = e.ts + e.dur;
    const auto it = last_end_by_tid.find(e.tid);
    if (it != last_end_by_tid.end()) {
      EXPECT_GT(end, it->second);
    }
    last_end_by_tid[e.tid] = end;
    if (e.name == "chunk") ++chunk_events;
  }
  EXPECT_EQ(chunk_events, 64u);
}

TEST(Trace, ResetDropsRecordedEvents) {
  trace::reset();
  trace::set_armed(true);
  { SSLIC_TRACE_SCOPE("ephemeral"); }
  trace::set_armed(false);
  trace::reset();
  const std::vector<ParsedEvent> events = parse_trace(serialize_session());
  for (const ParsedEvent& e : events) EXPECT_NE(e.name, "ephemeral");
}

TEST(Trace, DetailSpansRespectThreshold) {
  trace::reset();
  trace::set_armed(true);
  trace::set_detail_level(0);
  { SSLIC_TRACE_SCOPE_AT(1, "detail.skipped"); }
  trace::set_detail_level(1);
  { SSLIC_TRACE_SCOPE_AT(1, "detail.recorded"); }
  trace::set_detail_level(0);
  const std::vector<ParsedEvent> events = parse_trace(serialize_session());
  bool recorded = false;
  for (const ParsedEvent& e : events) {
    EXPECT_NE(e.name, "detail.skipped");
    if (e.name == "detail.recorded") recorded = true;
  }
  EXPECT_TRUE(recorded);
}

// The trace ring stops when full: a thread keeps its first kTraceCapacity
// spans and counts the rest as dropped. (The flight ring, which wraps
// instead, is FlightRecorder.RingWrapsAndRetainsMostRecent in test_ops.)
TEST(Trace, FullRingKeepsFirstSpansAndCountsDrops) {
  trace::reset();
  trace::set_armed(true);
  const std::uint64_t dropped_before = trace::dropped_events();
  const std::size_t capacity = trace::kTraceCapacity;
  // A dedicated thread gets a fresh ring, so the counts are exact.
  std::thread recorder([capacity] {
    for (std::size_t i = 0; i < capacity + 100; ++i) {
      SSLIC_TRACE_SCOPE("trace_test.full", static_cast<std::int64_t>(i));
    }
  });
  recorder.join();
  EXPECT_EQ(trace::dropped_events() - dropped_before, 100u);

  std::vector<bool> seen(capacity + 100, false);
  for (const ParsedEvent& e : parse_trace(serialize_session())) {
    if (e.name != "trace_test.full") continue;
    ASSERT_GE(e.arg, 0);
    ASSERT_LT(static_cast<std::size_t>(e.arg), seen.size());
    seen[static_cast<std::size_t>(e.arg)] = true;
  }
  const auto kept = std::count(
      seen.begin(), seen.begin() + static_cast<std::ptrdiff_t>(capacity), true);
  EXPECT_EQ(static_cast<std::size_t>(kept), capacity);
  EXPECT_FALSE(seen[capacity]);
  trace::reset();
}

// One clock per stage: a segmenter stage's span and its Instrumentation
// stage time come from the same two clock reads. Per stage, the summed span
// durations (nanosecond precision in the serializer) match the field to
// within the ring's 1 ns nudge of an equal end timestamp, once per span.
TEST(Trace, StageSpansMatchInstrumentation) {
  SyntheticParams scene;
  scene.width = 160;
  scene.height = 120;
  const GroundTruthImage gt = generate_synthetic(scene, 31);
  const LabImage lab = srgb_to_lab(gt.image);
  SlicParams params;
  params.num_superpixels = 64;
  params.max_iterations = 4;
  TiledConfig tiled;
  tiled.force_tiled = true;
  tiled.tile_width = 64;
  tiled.tile_height = 48;

  // The Lab and tiled entry points start after conversion; the RGB entry
  // points and TemporalSlic also time the conversion stage.
  enum class Entry { kLab, kRgb, kTemporal, kTiled };
  struct Case {
    const char* label;
    Entry entry;
    bool ppa;
    const char* init;
    const char* assign;
    const char* update;
    const char* connectivity;
  };
  const Case cases[] = {
      {"CPA", Entry::kLab, false, "cpa.init", "cpa.assign", "cpa.update",
       "cpa.connectivity"},
      {"PPA(0.5)", Entry::kLab, true, "ppa.init", "ppa.assign", "ppa.update",
       "ppa.connectivity"},
      {"CpaSlic::segment", Entry::kRgb, false, "cpa.init", "cpa.assign",
       "cpa.update", "cpa.connectivity"},
      {"PpaSlic(0.5)::segment", Entry::kRgb, true, "ppa.init", "ppa.assign",
       "ppa.update", "ppa.connectivity"},
      {"TemporalSlic, two frames", Entry::kTemporal, true, "ppa.init",
       "ppa.assign", "ppa.update", "ppa.connectivity"},
      {"tiled CPA", Entry::kTiled, false, "cpa.init", "cpa.assign",
       "cpa.update", "tiled.connectivity"},
      {"tiled PPA(0.5)", Entry::kTiled, true, "ppa.init", "ppa.assign",
       "ppa.update", "tiled.connectivity"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    Instrumentation total;  // the case's stage times, summed over its runs
    trace::reset();
    trace::set_armed(true);
    SlicParams run_params = params;
    if (c.ppa) run_params.subsample_ratio = 0.5;
    switch (c.entry) {
      case Entry::kLab:
        if (c.ppa) {
          (void)PpaSlic(run_params).segment_lab(lab, {}, &total);
        } else {
          (void)CpaSlic(run_params).segment_lab(lab, {}, &total);
        }
        break;
      case Entry::kRgb:
        if (c.ppa) {
          (void)PpaSlic(run_params).segment(gt.image, {}, &total);
        } else {
          (void)CpaSlic(run_params).segment(gt.image, {}, &total);
        }
        break;
      case Entry::kTemporal: {
        TemporalSlic temporal(run_params);
        for (int frame = 0; frame < 2; ++frame) {
          Instrumentation run;
          (void)temporal.next_frame(gt.image, &run);
          total.convert_ms += run.convert_ms;
          total.init_ms += run.init_ms;
          total.assign_ms += run.assign_ms;
          total.update_ms += run.update_ms;
          total.connectivity_ms += run.connectivity_ms;
        }
        break;
      }
      case Entry::kTiled:
        (void)TiledSegmenter(c.ppa ? Algorithm::kSslicPpa : Algorithm::kSlic,
                             run_params, tiled)
            .segment_lab(lab, &total);
        break;
    }
    const bool converts = c.entry == Entry::kRgb || c.entry == Entry::kTemporal;
    const std::vector<ParsedEvent> events = parse_trace(serialize_session());
    const std::pair<double, std::string> stages[] = {
        {total.convert_ms, "color.srgb_to_lab"},
        {total.init_ms, c.init},
        {total.assign_ms, c.assign},
        {total.update_ms, c.update},
        {total.connectivity_ms, c.connectivity},
    };
    for (const auto& [ms, span] : stages) {
      double span_ns = 0.0;
      int spans = 0;
      for (const ParsedEvent& e : events) {
        if (e.name != span) continue;
        span_ns += e.dur * 1e3;
        ++spans;
      }
      if (span == "color.srgb_to_lab" && !converts) {
        EXPECT_EQ(spans, 0);
        EXPECT_EQ(ms, 0.0);
        continue;
      }
      ASSERT_GT(spans, 0) << span;
      EXPECT_NEAR(ms * 1e6, span_ns, spans * 1.0 + 1e-3) << span;
    }
  }
  trace::reset();
}

// Telemetry must not perturb: a traced golden run produces byte-identical
// labels and centers to an untraced one.
TEST(Trace, ArmedRunMatchesUntracedRun) {
  SyntheticParams scene;
  scene.width = 160;
  scene.height = 120;
  const GroundTruthImage gt = generate_synthetic(scene, 99);
  SlicParams params;
  params.num_superpixels = 64;
  params.max_iterations = 4;
  const CpaSlic slic(params);

  trace::reset();
  trace::set_armed(false);
  const Segmentation plain = slic.segment(gt.image);
  trace::set_armed(true);
  const Segmentation traced = slic.segment(gt.image);
  trace::set_armed(false);
  trace::reset();

  EXPECT_EQ(plain.labels.pixels(), traced.labels.pixels());
  ASSERT_EQ(plain.centers.size(), traced.centers.size());
  for (std::size_t i = 0; i < plain.centers.size(); ++i) {
    EXPECT_EQ(plain.centers[i].x, traced.centers[i].x);
    EXPECT_EQ(plain.centers[i].y, traced.centers[i].y);
    EXPECT_EQ(plain.centers[i].L, traced.centers[i].L);
  }
}

#endif  // SSLIC_TRACING_ENABLED

}  // namespace
}  // namespace sslic
