// Deterministic parallel execution for the sweep/search hot paths.
//
// Two pieces:
//
//  * `ThreadPool` — one lazy process-wide pool of worker threads with
//    per-worker deques and work stealing.  Workers sleep on a condition
//    variable when idle; the pool only ever grows (threads are cheap to
//    park, and shrinking would complicate the steal protocol for nothing).
//
//  * `parallel_for_indexed(n, body)` — run `body(i)` for every i in [0, n)
//    on the pool, with the calling thread always participating.  Callers
//    write into PRE-SIZED slots indexed by i, so the assembled output is
//    bit-identical to the serial loop regardless of thread count.  With an
//    effective jobs count of 1 (or a single chunk) the primitive IS the
//    serial loop — same code path, same exception behaviour, zero pool
//    involvement.
//
// Determinism contract (DESIGN.md §10): for a pure-per-index body the
// result slots, and the exception thrown (if any), are identical at every
// jobs count.  When bodies throw, the exception rethrown after the region
// drains is the one raised by the LOWEST failing index — exactly what the
// serial loop would have thrown first — and indices above it are cancelled
// (not yet started chunks skip them).  Indices below the first failure are
// always evaluated.
//
// Jobs resolution: explicit per-call override > `set_jobs()` > the
// `ULD3D_JOBS` environment variable > 1 (serial).  The library default is
// deliberately serial so embedders opt in; the CLI opts in to all cores
// via `--jobs` / hardware_concurrency (see tools/uld3d_cli.cpp).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace uld3d::parallel {

/// Upper bound on any jobs setting (sanity cap, not a tuning knob).
inline constexpr int kMaxJobs = 1024;

/// std::thread::hardware_concurrency(), never less than 1.
[[nodiscard]] int hardware_concurrency();

/// The process default: `ULD3D_JOBS` clamped to [1, kMaxJobs] (invalid or
/// unset means 1 — serial).  Read once, at first use.
[[nodiscard]] int default_jobs();

/// The current global jobs setting (`set_jobs`, else `default_jobs`).
[[nodiscard]] int jobs();

/// Set the global jobs count.  `n == 0` restores `default_jobs()`; values
/// above kMaxJobs are rejected.  Safe to call between parallel regions at
/// any point in the process lifetime (the determinism tests run the same
/// work at jobs 1, 2, and 8 in one process).
void set_jobs(int n);

/// Per-call resolution: a positive `override_jobs` wins, else `jobs()`.
[[nodiscard]] int resolve_jobs(int override_jobs);

/// Process-wide work-stealing pool.  Tasks are pushed round-robin onto
/// per-worker deques; owners pop LIFO (locality), thieves steal FIFO.
/// Never submit a task that blocks on another queued task — regions below
/// only ever wait on *running* participants, and nested parallel_for calls
/// keep the nesting thread working, so the pool cannot deadlock on itself.
class ThreadPool {
 public:
  /// The lazy global instance.  First use spawns no threads; workers are
  /// created on demand by `ensure_workers`.
  static ThreadPool& instance();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Grow the pool to at least `count` workers (never shrinks).
  void ensure_workers(int count);

  /// Enqueue `task` for any worker.  Requires at least one worker.
  void submit(std::function<void()> task);

  [[nodiscard]] int worker_count() const;

  /// Tasks submitted but not yet started — the live queue depth a progress
  /// display shows to distinguish a wedged pool from a long tail.
  [[nodiscard]] std::size_t pending() const {
    return pending_.load(std::memory_order_relaxed);
  }

  /// The deepest the queue has ever been in this process (bench provenance
  /// records it so timing noise correlates with CPU pressure).
  [[nodiscard]] std::size_t queue_high_water() const {
    return queue_high_water_.load(std::memory_order_relaxed);
  }

 private:
  ThreadPool() = default;

  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void worker_main(std::size_t self);
  [[nodiscard]] bool try_take(std::size_t self, std::function<void()>& out);

  /// Guards the queues_/threads_ vectors themselves (growth + indexing);
  /// each queue's deque is guarded by its own mutex.
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;
  std::mutex wake_mutex_;
  std::condition_variable wake_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> queue_high_water_{0};
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<bool> stop_{false};
};

struct ForOptions {
  /// 0 = use the global `jobs()`; otherwise an explicit per-call count.
  int jobs = 0;
  /// Indices claimed per chunk.  Larger grains amortize the claim + body
  /// dispatch for very cheap bodies; 1 (default) maximizes balance.
  std::size_t grain = 1;
};

/// Run `body(i)` for every i in [0, n).  See the file comment for the
/// determinism and exception contract.  The calling thread always runs
/// chunks itself, so this never deadlocks waiting on a saturated pool and
/// nests safely (an inner parallel_for on a pool thread just participates).
void parallel_for_indexed(std::size_t n,
                          const std::function<void(std::size_t)>& body,
                          ForOptions opts = {});

}  // namespace uld3d::parallel
