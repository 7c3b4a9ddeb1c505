// Multithreaded execution layer: a persistent worker pool plus chunked
// parallel-for / parallel-reduce primitives.
//
// Design goals, in order:
//   1. Determinism. Results must be bit-identical for every thread count
//      (including 1). Work is therefore split into *chunks* whose boundaries
//      depend only on the problem (range length, a fixed chunk budget) —
//      never on the thread count — and reductions merge per-chunk partials
//      in ascending chunk order on the calling thread. Which worker executes
//      which chunk is dynamic (work stealing off a shared counter), but
//      chunk -> data mapping is fixed, so schedules cannot leak into results.
//   2. Zero-cost serial fallback. With one thread (or one chunk) the body
//      runs inline on the caller with no allocation, locking, or atomics.
//   3. Safety. Exceptions thrown by a chunk are captured, the remaining
//      chunks are abandoned, and the first exception is rethrown on the
//      caller. Calls from inside a worker (nested parallelism) degrade to
//      serial inline execution instead of deadlocking.
//
// Thread count resolution: `ThreadPool::global()` sizes itself from the
// `SSLIC_THREADS` environment variable when set, otherwise from
// `std::thread::hardware_concurrency()`. Benches and examples expose a
// `--threads=N` flag that calls `ThreadPool::set_global_threads(N)`.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace sslic {

/// Non-owning reference to a `void(std::size_t chunk)` callable. run_chunks
/// is a blocking call, so the referenced callable always outlives the job —
/// a type-erased pointer pair is enough, and unlike `std::function` it
/// never heap-allocates (capturing lambdas larger than the small-buffer
/// threshold would otherwise cost one allocation per parallel region, which
/// the zero-allocation video steady state cannot afford).
class ChunkFn {
 public:
  ChunkFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, ChunkFn> &&
                std::is_invocable_v<const std::decay_t<F>&, std::size_t>>>
  ChunkFn(const F& fn)  // NOLINT(google-explicit-constructor)
      : ctx_(&fn), call_(&call_impl<F>) {}

  void operator()(std::size_t chunk) const { call_(ctx_, chunk); }

  [[nodiscard]] explicit operator bool() const { return call_ != nullptr; }

 private:
  template <typename F>
  static void call_impl(const void* ctx, std::size_t chunk) {
    (*static_cast<const F*>(ctx))(chunk);
  }

  const void* ctx_ = nullptr;
  void (*call_)(const void*, std::size_t) = nullptr;
};

/// Persistent pool of `threads - 1` workers; the caller participates as the
/// remaining thread. `threads == 1` spawns no workers at all.
class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured degree of parallelism (>= 1).
  [[nodiscard]] int threads() const { return threads_; }

  /// Per-thread execution statistics, telemetry-only (monotonic since pool
  /// construction; relaxed counters, so totals are exact only at quiescent
  /// points). Slot 0 is the calling thread's participation in run_chunks;
  /// slots 1..threads-1 are the pool workers.
  struct WorkerStats {
    std::uint64_t chunks_executed = 0;
    std::uint64_t jobs_participated = 0;
    std::uint64_t busy_ns = 0;  ///< wall time spent inside drain()
  };

  /// Snapshot of every slot's stats; empty for a single-threaded pool
  /// (serial execution is not tracked). See telemetry::export_thread_pool.
  [[nodiscard]] std::vector<WorkerStats> stats() const;

  /// Jobs dispatched to the workers (serial fallbacks are not counted).
  [[nodiscard]] std::uint64_t jobs_run() const;

  /// Executes `fn(chunk)` for every chunk in [0, num_chunks), distributing
  /// chunks dynamically over the workers and the calling thread. Blocks
  /// until all chunks finish; rethrows the first chunk exception. Safe to
  /// call from inside a chunk body — whether that body runs on a pool
  /// worker or on the participating caller thread — by degrading to serial
  /// inline execution (one level of parallelism, no deadlock, no state
  /// corruption). The callable behind `fn` must stay alive for the call
  /// (always true for a lambda written at the call site).
  void run_chunks(std::size_t num_chunks, ChunkFn fn);

  /// The process-wide pool used by `parallel_for` / `parallel_reduce`.
  static ThreadPool& global();

  /// Resizes the global pool (e.g. from a `--threads` flag). Destroys the
  /// previous pool, so it must only be called at quiescent points — before
  /// any other thread uses (or holds a reference from) `global()`; asserts
  /// that no parallel region is running on this thread and that no pool job
  /// is in flight. `threads <= 0` restores the default (`SSLIC_THREADS` env
  /// or hardware concurrency).
  static void set_global_threads(int threads);

  /// Thread count the global pool would use if created now.
  static int default_threads();

  /// True while the current thread is executing inside a parallel region
  /// (pool worker, or the caller participating in run_chunks). Nested
  /// parallel primitives use this to fall back to serial execution.
  static bool in_parallel_region();

  /// Stat slot of the calling thread: 1..threads-1 on a pool worker, 0 on
  /// any other thread. Two chunks of one run_chunks job that run at the
  /// same time always report different slots, so a job can index
  /// per-thread scratch by it.
  static std::size_t current_slot();

 private:
  struct Impl;

  int threads_ = 1;
  Impl* impl_ = nullptr;  // null when threads_ == 1 (no workers)
};

namespace detail {

/// Fixed chunk budget for deterministic reductions: enough chunks to keep
/// any realistic core count busy, few enough that partial storage stays
/// small. Deliberately *not* derived from the thread count (see header
/// comment on determinism).
inline constexpr std::size_t kReduceChunks = 64;

/// Chunk budget for order-independent loops; oversubscription smooths load
/// imbalance from dynamic scheduling.
[[nodiscard]] std::size_t default_for_chunks(std::int64_t range);

/// Inclusive-exclusive bounds of chunk `c` when [begin, end) is split into
/// `num_chunks` near-equal contiguous pieces.
[[nodiscard]] inline std::pair<std::int64_t, std::int64_t> chunk_bounds(
    std::int64_t begin, std::int64_t end, std::size_t num_chunks,
    std::size_t c) {
  const auto range = static_cast<std::uint64_t>(end - begin);
  const auto lo = begin + static_cast<std::int64_t>(range * c / num_chunks);
  const auto hi =
      begin + static_cast<std::int64_t>(range * (c + 1) / num_chunks);
  return {lo, hi};
}

}  // namespace detail

/// Runs `body(lo, hi)` over contiguous sub-ranges covering [begin, end).
/// The body must be safe to run concurrently on disjoint ranges and must
/// not care how the range is partitioned (per-element independent work).
/// Serial (inline, single call) when the pool has one thread.
template <typename Body>
void parallel_for(std::int64_t begin, std::int64_t end, Body&& body) {
  if (begin >= end) return;
  ThreadPool& pool = ThreadPool::global();
  const std::size_t chunks = detail::default_for_chunks(end - begin);
  if (pool.threads() <= 1 || chunks <= 1 || ThreadPool::in_parallel_region()) {
    body(begin, end);
    return;
  }
  const auto fn = [&](std::size_t c) {
    const auto [lo, hi] = detail::chunk_bounds(begin, end, chunks, c);
    if (lo < hi) body(lo, hi);
  };
  pool.run_chunks(chunks, fn);
}

/// Deterministic chunked reduction. [begin, end) is split into a *fixed*
/// number of chunks (independent of thread count); `body(partial, lo, hi)`
/// accumulates one chunk into its own Partial (default-constructed), and
/// `merge(into, from)` folds the partials in ascending chunk order on the
/// calling thread. Bit-identical results for every thread count, including
/// the serial fallback, because the reduction tree never changes shape.
template <typename Partial, typename Body, typename Merge>
Partial parallel_reduce(std::int64_t begin, std::int64_t end, Body&& body,
                        Merge&& merge,
                        std::size_t num_chunks = detail::kReduceChunks) {
  Partial result{};
  if (begin >= end) return result;
  const std::size_t chunks =
      std::min(num_chunks, static_cast<std::size_t>(end - begin));
  ThreadPool& pool = ThreadPool::global();
  if (chunks <= 1) {
    body(result, begin, end);
    return result;
  }
  std::vector<Partial> partials(chunks);
  const auto fn = [&](std::size_t c) {
    const auto [lo, hi] = detail::chunk_bounds(begin, end, chunks, c);
    if (lo < hi) body(partials[c], lo, hi);
  };
  if (pool.threads() <= 1 || ThreadPool::in_parallel_region()) {
    for (std::size_t c = 0; c < chunks; ++c) fn(c);
  } else {
    pool.run_chunks(chunks, fn);
  }
  for (std::size_t c = 0; c < chunks; ++c) merge(result, std::move(partials[c]));
  return result;
}

}  // namespace sslic
