#include "common/thread_pool.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/check.h"
#include "common/trace.h"

namespace sslic {
namespace {

// True while this thread is inside a parallel region: set for the lifetime
// of a pool worker, and transiently on the calling thread while it drains
// chunks of its own job. Guards nested calls against reentering the
// single-job Impl state.
thread_local bool t_in_parallel = false;

// Stat slot of this thread (ThreadPool::current_slot): set once by each
// pool worker, 0 everywhere else.
thread_local std::size_t t_slot = 0;

}  // namespace

struct ThreadPool::Impl {
  // One outstanding job at a time; run_chunks is a blocking call, so the
  // state is reused across jobs and guarded by `mutex`. `job_mutex` is held
  // for a whole job: a second external thread submitting concurrently
  // fails the try_lock and runs its chunks serially on itself instead
  // (e.g. a direct segmenter call on one thread while an engine's scheduler
  // thread owns the pool).
  std::mutex job_mutex;
  std::mutex mutex;
  std::condition_variable work_ready;
  std::condition_variable work_done;
  std::uint64_t generation = 0;  // bumped per job; workers wait for a bump
  bool shutting_down = false;

  ChunkFn fn;  // non-owning; valid while the submitting run_chunks blocks
  std::size_t num_chunks = 0;
  std::atomic<std::size_t> next_chunk{0};
  std::size_t done_chunks = 0;   // guarded by mutex
  std::size_t busy_workers = 0;  // workers currently inside drain(); guarded
  std::atomic<bool> failed{false};
  std::exception_ptr exception;  // first failure, guarded by mutex

  std::vector<std::thread> workers;

  // Telemetry slots, one per thread (slot 0 = the participating caller),
  // cache-line padded so workers never contend on each other's counters.
  // Relaxed atomics: these are statistics, not synchronization.
  struct alignas(64) StatSlot {
    std::atomic<std::uint64_t> chunks{0};
    std::atomic<std::uint64_t> jobs{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };
  std::unique_ptr<StatSlot[]> stat_slots;
  std::atomic<std::uint64_t> jobs_submitted{0};

  // Timed, traced drain: every thread's share of a job becomes one
  // "pool.drain" span (so a trace shows worker occupancy per job) and one
  // busy-time/chunk-count update in its stat slot.
  std::size_t drain_with_stats(std::size_t slot) {
    const std::uint64_t t0 = trace::now_ns();
    std::size_t completed;
    {
      SSLIC_TRACE_SCOPE("pool.drain");
      completed = drain();
    }
    StatSlot& stats = stat_slots[slot];
    stats.busy_ns.fetch_add(trace::now_ns() - t0, std::memory_order_relaxed);
    stats.chunks.fetch_add(completed, std::memory_order_relaxed);
    stats.jobs.fetch_add(1, std::memory_order_relaxed);
    return completed;
  }

  // Claims and runs chunks until the job is exhausted; returns the number
  // of chunks this thread completed (including abandoned ones — a chunk
  // skipped after a failure still counts toward completion so the caller's
  // wait terminates).
  std::size_t drain() {
    std::size_t completed = 0;
    for (;;) {
      const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          fn(c);
        } catch (...) {
          bool expected = false;
          if (failed.compare_exchange_strong(expected, true)) {
            const std::lock_guard<std::mutex> lock(mutex);
            exception = std::current_exception();
          }
        }
      }
      ++completed;
    }
    return completed;
  }

  // A job is complete only when every chunk ran AND every worker has left
  // drain() — otherwise a straggler could observe the next job's freshly
  // reset counters mid-claim and double-run a chunk.
  void worker_loop(std::size_t slot) {
    t_in_parallel = true;
    t_slot = slot;
    trace::set_thread_name("sslic-worker-" + std::to_string(slot));
    std::uint64_t seen_generation = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_ready.wait(lock, [&] {
          return shutting_down || generation != seen_generation;
        });
        if (shutting_down) return;
        seen_generation = generation;
        busy_workers += 1;
      }
      const std::size_t completed = drain_with_stats(slot);
      {
        const std::lock_guard<std::mutex> lock(mutex);
        done_chunks += completed;
        busy_workers -= 1;
        // Notify whenever the last worker leaves drain(): the caller waits
        // for job completion, and the *next* run_chunks waits for stragglers
        // before recycling the job state — both key off busy_workers == 0.
        if (busy_workers == 0) work_done.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(int threads) : threads_(std::max(1, threads)) {
  if (threads_ == 1) return;
  impl_ = new Impl;
  impl_->stat_slots =
      std::make_unique<Impl::StatSlot[]>(static_cast<std::size_t>(threads_));
  impl_->workers.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 0; i < threads_ - 1; ++i) {
    const auto slot = static_cast<std::size_t>(i + 1);
    impl_->workers.emplace_back([this, slot] { impl_->worker_loop(slot); });
  }
}

ThreadPool::~ThreadPool() {
  if (impl_ == nullptr) return;
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shutting_down = true;
  }
  impl_->work_ready.notify_all();
  for (auto& worker : impl_->workers) worker.join();
  delete impl_;
}

void ThreadPool::run_chunks(std::size_t num_chunks, ChunkFn fn) {
  if (num_chunks == 0) return;
  // Serial fallbacks: one thread, one chunk, or a nested call from a chunk
  // body already running on this pool (a worker parking on work_done, or
  // the caller reentering run_chunks mid-drain, would deadlock or corrupt
  // the in-flight job state).
  if (impl_ == nullptr || num_chunks == 1 || t_in_parallel) {
    for (std::size_t c = 0; c < num_chunks; ++c) fn(c);
    return;
  }

  Impl& impl = *impl_;
  const std::unique_lock<std::mutex> job_lock(impl.job_mutex, std::try_to_lock);
  if (!job_lock.owns_lock()) {
    for (std::size_t c = 0; c < num_chunks; ++c) fn(c);
    return;
  }
  {
    std::unique_lock<std::mutex> lock(impl.mutex);
    // Late-waker guard: a worker that slept through the previous job can
    // still satisfy its wake predicate (generation advanced past what it
    // last saw), increment busy_workers, and enter drain() *after* that
    // job's caller has already returned. Its drain() exits immediately —
    // the old chunk counter is exhausted — but until it leaves, the job
    // state it reads must not be recycled, or it could claim chunks of the
    // new job against stale bounds (double-running chunks and overshooting
    // done_chunks). Wait for every straggler to leave before resetting.
    // Wake predicate and busy_workers increment share one critical section
    // with this reset, so a worker either drains before the reset or
    // observes the fully initialized new job.
    impl.work_done.wait(lock, [&] { return impl.busy_workers == 0; });
    impl.fn = fn;
    impl.num_chunks = num_chunks;
    impl.next_chunk.store(0, std::memory_order_relaxed);
    impl.done_chunks = 0;
    impl.failed.store(false, std::memory_order_relaxed);
    impl.exception = nullptr;
    impl.generation += 1;
  }
  impl.jobs_submitted.fetch_add(1, std::memory_order_relaxed);
  impl.work_ready.notify_all();

  t_in_parallel = true;
  const std::size_t completed = impl.drain_with_stats(0);
  t_in_parallel = false;
  {
    std::unique_lock<std::mutex> lock(impl.mutex);
    impl.done_chunks += completed;
    // >= rather than == as defense in depth: an overshot counter must never
    // turn a completed job into a hang.
    impl.work_done.wait(lock, [&] {
      return impl.done_chunks >= num_chunks && impl.busy_workers == 0;
    });
    impl.fn = ChunkFn{};
    if (impl.exception != nullptr) {
      std::exception_ptr e = impl.exception;
      impl.exception = nullptr;
      lock.unlock();
      std::rethrow_exception(e);
    }
  }
}

std::vector<ThreadPool::WorkerStats> ThreadPool::stats() const {
  std::vector<WorkerStats> result;
  if (impl_ == nullptr) return result;
  result.resize(static_cast<std::size_t>(threads_));
  for (std::size_t i = 0; i < result.size(); ++i) {
    const Impl::StatSlot& slot = impl_->stat_slots[i];
    result[i].chunks_executed = slot.chunks.load(std::memory_order_relaxed);
    result[i].jobs_participated = slot.jobs.load(std::memory_order_relaxed);
    result[i].busy_ns = slot.busy_ns.load(std::memory_order_relaxed);
  }
  return result;
}

std::uint64_t ThreadPool::jobs_run() const {
  return impl_ == nullptr
             ? 0
             : impl_->jobs_submitted.load(std::memory_order_relaxed);
}

bool ThreadPool::in_parallel_region() { return t_in_parallel; }

std::size_t ThreadPool::current_slot() { return t_slot; }

int ThreadPool::default_threads() {
  if (const char* env = std::getenv("SSLIC_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1 && parsed <= 1024)
      return static_cast<int>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

std::mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool;

}  // namespace

ThreadPool& ThreadPool::global() {
  const std::lock_guard<std::mutex> lock(g_global_mutex);
  if (g_global_pool == nullptr)
    g_global_pool = std::make_unique<ThreadPool>(default_threads());
  return *g_global_pool;
}

void ThreadPool::set_global_threads(int threads) {
  SSLIC_CHECK_MSG(!t_in_parallel,
                  "set_global_threads called from inside a parallel region");
  const std::lock_guard<std::mutex> lock(g_global_mutex);
  if (g_global_pool != nullptr && g_global_pool->impl_ != nullptr) {
    // Destroying the live pool invalidates references other threads got
    // from global(). t_in_parallel only covers the calling thread, so also
    // require that no job is in flight anywhere: job_mutex is held for a
    // job's whole duration, making try_lock a reliable in-flight probe.
    // (Best effort — callers must still resize only at quiescent points,
    // e.g. CLI parsing before any concurrent pool use.)
    const std::unique_lock<std::mutex> in_flight(
        g_global_pool->impl_->job_mutex, std::try_to_lock);
    SSLIC_CHECK_MSG(in_flight.owns_lock(),
                    "set_global_threads called while a pool job is in flight");
  }
  g_global_pool =
      std::make_unique<ThreadPool>(threads <= 0 ? default_threads() : threads);
}

namespace detail {

std::size_t default_for_chunks(std::int64_t range) {
  if (range <= 1) return static_cast<std::size_t>(std::max<std::int64_t>(range, 0));
  const int threads = ThreadPool::global().threads();
  if (threads <= 1) return 1;
  const auto target = static_cast<std::size_t>(threads) * 4;
  return std::min(static_cast<std::size_t>(range), target);
}

}  // namespace detail

}  // namespace sslic
