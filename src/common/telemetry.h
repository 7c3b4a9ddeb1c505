// Unified telemetry layer: a thread-safe registry of named counters, gauges,
// and fixed-bucket histograms with percentile queries, drained through one
// TelemetrySink interface.
//
// Naming convention (DESIGN.md §4d): `sslic.<unit>.<metric>`, e.g.
// `sslic.engine.0.frames`, `sslic.pool.worker.3.busy_ms`,
// `sslic.video.frame_ms`. Units are the pipeline stages of the paper's
// Table 1 plus the runtime itself (pool, video, trace).
//
// Concurrency: all metric mutation is lock-free (relaxed atomics — the
// counters are statistics, not synchronization); registry lookup takes a
// mutex but returns stable references, so hot paths resolve their metric
// once and then mutate without locking. Reads (percentiles, flush) are safe
// concurrent with writes and see a near-point-in-time snapshot.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sslic {

class ThreadPool;

namespace telemetry {

/// Monotonically increasing integer metric.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Overwrites the value — for re-publishing externally accumulated totals
  /// (e.g. an Instrumentation record) into the registry.
  void set(std::uint64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value-wins floating-point metric.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  void add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Geometric bucket upper bounds: `count` buckets spanning [lo, hi].
[[nodiscard]] std::vector<double> exponential_buckets(double lo, double hi,
                                                      int count);

/// Linear bucket upper bounds: lo, lo+step, ..., lo+(count-1)*step.
[[nodiscard]] std::vector<double> linear_buckets(double lo, double step,
                                                 int count);

/// Default latency layout: 10 µs .. ~10 s, ~11% resolution per bucket.
[[nodiscard]] const std::vector<double>& default_latency_buckets_ms();

/// A histogram exemplar: the most recent (value, frame trace id) pair
/// recorded into one bucket. trace_id 0 means "no exemplar" — either the
/// bucket is empty or everything recorded into it carried no frame context.
/// Exemplars are what let a p99 outlier in /metrics resolve to the matching
/// spans in /tracez (both carry the same trace id).
struct Exemplar {
  double value = 0.0;
  std::uint64_t trace_id = 0;
  [[nodiscard]] bool valid() const { return trace_id != 0; }
};

/// Fixed-bucket histogram with interpolated percentile queries. Bucket
/// boundaries are upper bounds (strictly increasing); values above the last
/// bound land in an implicit overflow bucket clamped by the observed max.
///
/// Each bucket additionally retains one exemplar (last write wins) guarded
/// by a per-bucket atomic seqlock: writers CAS the version odd, store the
/// pair, and release it even; a concurrent writer that loses the CAS skips
/// (exemplars are best-effort samples, dropping one is fine); readers retry
/// until they see an even, unchanged version. All accesses are atomic, so
/// the scheme is TSan-clean, lock-free, and never tears a (value, trace_id)
/// pair.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  /// Records `value`, tagging the bucket exemplar with the calling thread's
  /// ambient frame context (trace::current_trace_id(); no exemplar when 0).
  void record(double value);

  /// Records `value` with an explicit frame trace id (0 = no exemplar).
  void record(double value, std::uint64_t trace_id);

  /// The retained exemplar of bucket `bucket` (0..bounds().size()), invalid
  /// when none was recorded.
  [[nodiscard]] Exemplar exemplar(std::size_t bucket) const;

  /// The exemplar nearest percentile `p`: the exemplar of the bucket the
  /// interpolated percentile lands in, falling back to the closest
  /// lower-valued bucket that has one. Invalid when the histogram is empty
  /// or no record carried a frame context.
  [[nodiscard]] Exemplar exemplar_near_percentile(double p) const;

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Interpolated percentile, p in [0, 100]. Exact to within one bucket
  /// width (clamped to the observed min/max). Returns 0 when empty.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double p50() const { return percentile(50.0); }
  [[nodiscard]] double p95() const { return percentile(95.0); }
  [[nodiscard]] double p99() const { return percentile(99.0); }

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }

 private:
  /// Per-bucket exemplar storage (see class comment for the seqlock
  /// protocol). version: even = stable, odd = mid-write, 0 = never written.
  struct ExemplarSlot {
    std::atomic<std::uint32_t> version{0};
    std::atomic<double> value{0.0};
    std::atomic<std::uint64_t> trace_id{0};
  };

  [[nodiscard]] std::size_t bucket_index(double value) const;

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_+1 slots
  std::unique_ptr<ExemplarSlot[]> exemplars_;              // bounds_+1 slots
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// One metric's state at flush time.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  double value = 0.0;  ///< counter/gauge value; histogram mean
  // Histogram-only fields:
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  /// Exemplars nearest each exported quantile (invalid when absent). Sinks
  /// that understand exemplars (Prometheus, JSON) surface the trace id so a
  /// tail sample links back to its frame's spans.
  Exemplar p50_exemplar;
  Exemplar p95_exemplar;
  Exemplar p99_exemplar;
};

/// Consumer of metric snapshots — the one seam every exporter goes through.
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void write(const MetricSample& sample) = 0;
};

/// Sink that emits one SSLIC_INFO line per metric.
class LogSink : public TelemetrySink {
 public:
  void write(const MetricSample& sample) override;
};

/// Sink that accumulates a JSON object `{"name": {...}, ...}`; call text()
/// after the flush.
class JsonSink : public TelemetrySink {
 public:
  void write(const MetricSample& sample) override;
  [[nodiscard]] std::string text() const;

 private:
  std::string body_;
};

/// Sink that accumulates Prometheus text exposition format (version 0.0.4):
/// counters and gauges as-is, histograms as summaries with quantile labels
/// plus `_sum`/`_count`. Metric names are sanitized to the Prometheus
/// charset (`sslic.video.frame_ms` -> `sslic_video_frame_ms`). Suitable for
/// the node-exporter textfile collector or any scrape-format consumer.
class PrometheusSink : public TelemetrySink {
 public:
  void write(const MetricSample& sample) override;
  [[nodiscard]] const std::string& text() const { return body_; }

 private:
  std::string body_;
};

/// Thread-safe registry of named metrics. Lookups are amortized once per
/// call site; the returned references stay valid until clear().
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` applies only when the histogram is first created.
  Histogram& histogram(const std::string& name,
                       const std::vector<double>& bounds =
                           default_latency_buckets_ms());

  /// Streams every metric through the sink, counters first, then gauges,
  /// then histograms, each group in name order.
  void flush_to(TelemetrySink& sink) const;

  /// The full registry in Prometheus text exposition format (one flush
  /// through a PrometheusSink). Write this to a file per soak snapshot and
  /// standard tooling can watch a long-running pipeline.
  [[nodiscard]] std::string export_prometheus() const;

  /// Drops every metric. Invalidates references handed out earlier.
  void clear();

  /// The process-wide registry used by the exporters below.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Publishes pool execution stats: `sslic.pool.jobs`, `sslic.pool.threads`,
/// and per worker `sslic.pool.worker.<i>.{chunks,jobs,busy_ms}` (slot 0 is
/// the caller's participation; see ThreadPool::stats()).
void export_thread_pool(const ThreadPool& pool,
                        MetricsRegistry& registry = MetricsRegistry::global());

/// Publishes the process heap-allocation total from common/alloc_counter.h
/// as `sslic.alloc.total` — nonzero only in binaries that install the
/// counting allocator (video_pipeline, test_fused). Makes the PR-4
/// zero-allocation guarantee visible in `--metrics` output and the soak
/// JSONL, not only in the video_pipeline report.
void export_allocations(MetricsRegistry& registry = MetricsRegistry::global());

}  // namespace telemetry
}  // namespace sslic
