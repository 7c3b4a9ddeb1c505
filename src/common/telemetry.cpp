#include "common/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/alloc_counter.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace sslic::telemetry {

namespace {

void atomic_add(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

std::string escaped_name(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// JSON has no literal for non-finite numbers; emit null so consumers
/// (/varz, soak JSONL, crash reports) always parse.
std::string json_num(double v) {
  return std::isfinite(v) ? num(v) : "null";
}

/// Prometheus exposition spells non-finite values NaN / +Inf / -Inf.
std::string prom_num(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return num(v);
}

}  // namespace

std::vector<double> exponential_buckets(double lo, double hi, int count) {
  SSLIC_CHECK(lo > 0.0 && hi > lo && count >= 2);
  std::vector<double> bounds(static_cast<std::size_t>(count));
  const double ratio = std::pow(hi / lo, 1.0 / (count - 1));
  double bound = lo;
  for (auto& b : bounds) {
    b = bound;
    bound *= ratio;
  }
  bounds.back() = hi;  // close the range exactly despite rounding
  return bounds;
}

std::vector<double> linear_buckets(double lo, double step, int count) {
  SSLIC_CHECK(step > 0.0 && count >= 1);
  std::vector<double> bounds(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    bounds[static_cast<std::size_t>(i)] = lo + step * i;
  return bounds;
}

const std::vector<double>& default_latency_buckets_ms() {
  static const std::vector<double> bounds =
      exponential_buckets(0.01, 10000.0, 128);
  return bounds;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]),
      exemplars_(new ExemplarSlot[bounds_.size() + 1]),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  SSLIC_CHECK(!bounds_.empty());
  SSLIC_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  for (std::size_t i = 0; i + 1 < bounds_.size(); ++i)
    SSLIC_CHECK(bounds_[i] < bounds_[i + 1]);
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
}

std::size_t Histogram::bucket_index(double value) const {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  return static_cast<std::size_t>(it - bounds_.begin());
}

void Histogram::record(double value) {
  record(value, trace::current_trace_id());
}

void Histogram::record(double value, std::uint64_t trace_id) {
  const std::size_t bucket = bucket_index(value);
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
  atomic_min(min_, value);
  atomic_max(max_, value);
  if (trace_id == 0) return;
  // Seqlock write: claim the slot by flipping the version odd; a writer that
  // loses the CAS drops its exemplar (best-effort, last-claimer-wins).
  ExemplarSlot& slot = exemplars_[bucket];
  std::uint32_t version = slot.version.load(std::memory_order_relaxed);
  if ((version & 1u) != 0) return;  // another writer mid-update
  if (!slot.version.compare_exchange_strong(version, version + 1,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed))
    return;
  slot.value.store(value, std::memory_order_relaxed);
  slot.trace_id.store(trace_id, std::memory_order_relaxed);
  slot.version.store(version + 2, std::memory_order_release);
}

Exemplar Histogram::exemplar(std::size_t bucket) const {
  if (bucket > bounds_.size()) return {};
  const ExemplarSlot& slot = exemplars_[bucket];
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::uint32_t before = slot.version.load(std::memory_order_acquire);
    if (before == 0) return {};           // never written
    if ((before & 1u) != 0) continue;     // mid-write, retry
    Exemplar out;
    out.value = slot.value.load(std::memory_order_relaxed);
    out.trace_id = slot.trace_id.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.version.load(std::memory_order_relaxed) == before) return out;
  }
  return {};  // persistent write contention: report "no exemplar"
}

Exemplar Histogram::exemplar_near_percentile(double p) const {
  if (count() == 0) return {};
  const std::size_t target = bucket_index(percentile(p));
  // The percentile bucket itself, else walk down to the nearest lower bucket
  // with an exemplar (a tail query prefers understating over jumping past
  // the tail into unrelated territory), else up.
  for (std::size_t b = target + 1; b-- > 0;) {
    const Exemplar e = exemplar(b);
    if (e.valid()) return e;
  }
  for (std::size_t b = target + 1; b <= bounds_.size(); ++b) {
    const Exemplar e = exemplar(b);
    if (e.valid()) return e;
  }
  return {};
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::percentile(double p) const {
  SSLIC_CHECK(p >= 0.0 && p <= 100.0);
  // Snapshot the buckets once so concurrent records cannot tear the
  // cumulative walk.
  std::vector<std::uint64_t> counts(bounds_.size() + 1);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  const double lo_observed = min_.load(std::memory_order_relaxed);
  const double hi_observed = max_.load(std::memory_order_relaxed);

  // Nearest-rank with linear interpolation inside the winning bucket.
  const double rank = p / 100.0 * static_cast<double>(total);
  const double target = std::max(1.0, std::min(static_cast<double>(total), rank));
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const auto before = static_cast<double>(cumulative);
    cumulative += counts[b];
    if (static_cast<double>(cumulative) < target) continue;
    double lower = b == 0 ? lo_observed : bounds_[b - 1];
    double upper = b < bounds_.size() ? bounds_[b] : hi_observed;
    lower = std::clamp(lower, lo_observed, hi_observed);
    upper = std::clamp(upper, lo_observed, hi_observed);
    const double fraction = (target - before) / static_cast<double>(counts[b]);
    return lower + fraction * (upper - lower);
  }
  return hi_observed;  // unreachable: total > 0 guarantees a winning bucket
}

void LogSink::write(const MetricSample& sample) {
  if (sample.kind == MetricSample::Kind::kHistogram) {
    SSLIC_INFO(sample.name << " count=" << sample.count << " mean="
                           << sample.value << " p50=" << sample.p50
                           << " p95=" << sample.p95 << " p99=" << sample.p99);
  } else {
    SSLIC_INFO(sample.name << " = " << sample.value);
  }
}

void JsonSink::write(const MetricSample& sample) {
  if (!body_.empty()) body_ += ",\n";
  body_ += "  \"" + escaped_name(sample.name) + "\": ";
  switch (sample.kind) {
    case MetricSample::Kind::kCounter:
      body_ += "{\"kind\": \"counter\", \"value\": " + json_num(sample.value) + "}";
      break;
    case MetricSample::Kind::kGauge:
      body_ += "{\"kind\": \"gauge\", \"value\": " + json_num(sample.value) + "}";
      break;
    case MetricSample::Kind::kHistogram:
      body_ += "{\"kind\": \"histogram\", \"count\": " +
               json_num(static_cast<double>(sample.count)) +
               ", \"sum\": " + json_num(sample.sum) +
               ", \"min\": " + json_num(sample.min) +
               ", \"max\": " + json_num(sample.max) +
               ", \"mean\": " + json_num(sample.value) +
               ", \"p50\": " + json_num(sample.p50) +
               ", \"p95\": " + json_num(sample.p95) +
               ", \"p99\": " + json_num(sample.p99);
      if (sample.p99_exemplar.valid()) {
        body_ += ", \"p99_exemplar\": {\"trace_id\": " +
                 std::to_string(sample.p99_exemplar.trace_id) +
                 ", \"value\": " + json_num(sample.p99_exemplar.value) + "}";
      }
      body_ += "}";
      break;
  }
}

std::string JsonSink::text() const {
  return body_.empty() ? "{}" : "{\n" + body_ + "\n}";
}

namespace {

/// Prometheus metric names admit [a-zA-Z_:][a-zA-Z0-9_:]* only; everything
/// else (the dots of the sslic.<unit>.<metric> convention) maps to '_', and
/// a leading digit gains a '_' prefix.
std::string prometheus_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (!out.empty() && out.front() >= '0' && out.front() <= '9')
    out.insert(out.begin(), '_');
  return out;
}

/// Label values escape backslash, double-quote, and newline per the text
/// exposition format; HELP docstrings escape backslash and newline.
std::string prometheus_escape(const std::string& s, bool escape_quotes) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else if (c == '"' && escape_quotes) out += "\\\"";
    else out.push_back(c);
  }
  return out;
}

std::string prometheus_label(const std::string& key, const std::string& value) {
  return "{" + key + "=\"" + prometheus_escape(value, true) + "\"}";
}

/// One quantile sample line, with an OpenMetrics exemplar suffix
/// (` # {trace_id="N"} value`) when the quantile's bucket retained one. The
/// suffix follows the sample value, so format consumers that only parse
/// `name{labels} value` lines stay compatible.
void append_quantile(std::string& body, const std::string& name,
                     const char* quantile, double value,
                     const Exemplar& exemplar) {
  body += name + prometheus_label("quantile", quantile) + " " + prom_num(value);
  if (exemplar.valid()) {
    body += " # {trace_id=\"" + std::to_string(exemplar.trace_id) + "\"} " +
            prom_num(exemplar.value);
  }
  body += "\n";
}

}  // namespace

void PrometheusSink::write(const MetricSample& sample) {
  const std::string name = prometheus_name(sample.name);
  // The HELP docstring carries the original dotted registry name, so a
  // scrape consumer can map the sanitized name back to DESIGN.md §4d.
  body_ += "# HELP " + name + " sslic metric " +
           prometheus_escape(sample.name, false) + "\n";
  switch (sample.kind) {
    case MetricSample::Kind::kCounter:
      body_ += "# TYPE " + name + " counter\n";
      body_ += name + " " + prom_num(sample.value) + "\n";
      break;
    case MetricSample::Kind::kGauge:
      body_ += "# TYPE " + name + " gauge\n";
      body_ += name + " " + prom_num(sample.value) + "\n";
      break;
    case MetricSample::Kind::kHistogram:
      body_ += "# TYPE " + name + " summary\n";
      append_quantile(body_, name, "0.5", sample.p50, sample.p50_exemplar);
      append_quantile(body_, name, "0.95", sample.p95, sample.p95_exemplar);
      append_quantile(body_, name, "0.99", sample.p99, sample.p99_exemplar);
      body_ += name + "_sum " + prom_num(sample.sum) + "\n";
      body_ += name + "_count " + prom_num(static_cast<double>(sample.count)) + "\n";
      break;
  }
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::vector<double>& bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(bounds);
  return *slot;
}

void MetricsRegistry::flush_to(TelemetrySink& sink) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricSample::Kind::kCounter;
    sample.value = static_cast<double>(counter->value());
    sink.write(sample);
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricSample::Kind::kGauge;
    sample.value = gauge->value();
    sink.write(sample);
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricSample::Kind::kHistogram;
    sample.count = histogram->count();
    sample.sum = histogram->sum();
    sample.value = histogram->mean();
    sample.min = histogram->min();
    sample.max = histogram->max();
    sample.p50 = histogram->p50();
    sample.p95 = histogram->p95();
    sample.p99 = histogram->p99();
    sample.p50_exemplar = histogram->exemplar_near_percentile(50.0);
    sample.p95_exemplar = histogram->exemplar_near_percentile(95.0);
    sample.p99_exemplar = histogram->exemplar_near_percentile(99.0);
    sink.write(sample);
  }
}

std::string MetricsRegistry::export_prometheus() const {
  PrometheusSink sink;
  flush_to(sink);
  return sink.text();
}

void MetricsRegistry::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

void export_thread_pool(const ThreadPool& pool, MetricsRegistry& registry) {
  registry.counter("sslic.pool.jobs").set(pool.jobs_run());
  registry.counter("sslic.pool.threads")
      .set(static_cast<std::uint64_t>(pool.threads()));
  const std::vector<ThreadPool::WorkerStats> stats = pool.stats();
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const std::string prefix = "sslic.pool.worker." + std::to_string(i);
    registry.counter(prefix + ".chunks").set(stats[i].chunks_executed);
    registry.counter(prefix + ".jobs").set(stats[i].jobs_participated);
    registry.gauge(prefix + ".busy_ms")
        .set(static_cast<double>(stats[i].busy_ns) / 1e6);
  }
}

void export_allocations(MetricsRegistry& registry) {
  registry.counter("sslic.alloc.total").set(alloc_counter::allocations());
}

}  // namespace sslic::telemetry
