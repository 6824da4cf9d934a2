#include "uld3d/util/parallel.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>

#include "uld3d/util/check.hpp"
#include "uld3d/util/flightrec.hpp"
#include "uld3d/util/log.hpp"

namespace uld3d::parallel {

namespace {

std::atomic<int> g_jobs{0};  // 0 = unset, fall through to default_jobs()

int parse_env_jobs() {
  const char* env = std::getenv("ULD3D_JOBS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == nullptr || *end != '\0' || v < 1 || v > kMaxJobs) {
    log_warning(std::string("ignoring invalid ULD3D_JOBS value: ") + env);
    return 1;
  }
  return static_cast<int>(v);
}

}  // namespace

int hardware_concurrency() {
  static const int cores = [] {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : static_cast<int>(hc);
  }();
  return cores;
}

int default_jobs() {
  static const int env_jobs = parse_env_jobs();
  return env_jobs;
}

int jobs() {
  const int j = g_jobs.load(std::memory_order_relaxed);
  return j > 0 ? j : default_jobs();
}

void set_jobs(int n) {
  expects(n >= 0 && n <= kMaxJobs,
          "jobs must be in [0, " + std::to_string(kMaxJobs) +
              "] (0 restores the default)");
  g_jobs.store(n, std::memory_order_relaxed);
}

int resolve_jobs(int override_jobs) {
  if (override_jobs > 0) return std::min(override_jobs, kMaxJobs);
  return jobs();
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_.store(true, std::memory_order_relaxed);
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::ensure_workers(int count) {
  if (count <= 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  while (static_cast<int>(threads_.size()) < count) {
    queues_.push_back(std::make_unique<WorkerQueue>());
    const std::size_t self = threads_.size();
    threads_.emplace_back([this, self] { worker_main(self); });
  }
}

int ThreadPool::worker_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(threads_.size());
}

void ThreadPool::submit(std::function<void()> task) {
  WorkerQueue* queue = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    expects(!queues_.empty(), "ThreadPool::submit needs at least one worker");
    const std::size_t slot =
        next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
    queue = queues_[slot].get();
  }
  {
    std::lock_guard<std::mutex> lock(queue->mutex);
    queue->tasks.push_back(std::move(task));
  }
  // High-water tracking: the +1 below takes pending_ to depth d; remember
  // the deepest d seen.  Relaxed CAS loop — contention here is one word.
  const std::size_t depth = pending_.load(std::memory_order_relaxed) + 1;
  std::size_t seen = queue_high_water_.load(std::memory_order_relaxed);
  while (depth > seen && !queue_high_water_.compare_exchange_weak(
                             seen, depth, std::memory_order_relaxed)) {
  }
  {
    // Publishing `pending_` under wake_mutex_ pairs with the wait predicate:
    // a worker is either before its predicate check (and will see the new
    // count) or inside wait (and will receive the notify).
    std::lock_guard<std::mutex> lock(wake_mutex_);
    pending_.fetch_add(1, std::memory_order_relaxed);
  }
  wake_.notify_one();
}

bool ThreadPool::try_take(std::size_t self, std::function<void()>& out) {
  // Snapshot the stable WorkerQueue pointers; the vector may grow
  // concurrently but existing pointees never move.
  std::vector<WorkerQueue*> queues;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queues.reserve(queues_.size());
    for (const auto& q : queues_) queues.push_back(q.get());
  }
  // Own queue first (LIFO for locality), then steal round-robin (FIFO —
  // thieves take the oldest task, the classic Chase–Lev orientation).
  for (std::size_t k = 0; k < queues.size(); ++k) {
    WorkerQueue* queue = queues[(self + k) % queues.size()];
    std::lock_guard<std::mutex> lock(queue->mutex);
    if (queue->tasks.empty()) continue;
    if (k == 0) {
      out = std::move(queue->tasks.back());
      queue->tasks.pop_back();
    } else {
      out = std::move(queue->tasks.front());
      queue->tasks.pop_front();
    }
    return true;
  }
  return false;
}

void ThreadPool::worker_main(std::size_t self) {
  // Visible in the flight recorder / postmortem dump, Chrome trace
  // thread_name metadata, and OS tools (top -H, gdb, perf).
  char name[16];
  std::snprintf(name, sizeof name, "uld3d-wk%zu", self);
  flightrec::set_thread_name(name);
  for (;;) {
    std::function<void()> task;
    if (try_take(self, task)) {
      pending_.fetch_sub(1, std::memory_order_relaxed);
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_.wait(lock, [this] {
      return stop_.load(std::memory_order_relaxed) ||
             pending_.load(std::memory_order_relaxed) > 0;
    });
    if (stop_.load(std::memory_order_relaxed)) return;
  }
}

namespace {

/// Shared state of one parallel_for region.  Heap-allocated (shared_ptr)
/// so a queued-but-never-started pool task outliving the call is a safe
/// no-op: it can only touch `body` after claiming an index, and no index
/// remains once the caller has returned.
struct Region {
  Region(std::size_t n_, std::size_t grain_,
         const std::function<void(std::size_t)>* body_)
      : n(n_), grain(grain_), body(body_) {}

  const std::size_t n;
  const std::size_t grain;
  const std::function<void(std::size_t)>* body;

  std::atomic<std::size_t> next{0};
  /// Indices above this are skipped — set to the lowest failing index so a
  /// fail-fast sweep stops claiming work past the failure, while every
  /// index BELOW the final first-failure still runs (serial equivalence).
  std::atomic<std::size_t> cancel_above{
      std::numeric_limits<std::size_t>::max()};

  std::mutex mutex;
  std::condition_variable done;
  std::size_t active = 0;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;

  void participate() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++active;
    }
    for (;;) {
      const std::size_t start =
          next.fetch_add(grain, std::memory_order_relaxed);
      if (start >= n) break;
      const std::size_t end = std::min(start + grain, n);
      for (std::size_t i = start; i < end; ++i) {
        if (i > cancel_above.load(std::memory_order_relaxed)) continue;
        try {
          (*body)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          if (i < error_index) {
            error_index = i;
            error = std::current_exception();
            cancel_above.store(i, std::memory_order_relaxed);
          }
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      --active;
    }
    done.notify_all();
  }

  /// Completion = every index claimed AND no participant still running.
  /// Never waits on queued-but-unstarted pool tasks, so saturated or
  /// nested pools cannot deadlock the region.
  void wait_done() {
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [this] {
      return active == 0 && next.load(std::memory_order_relaxed) >= n;
    });
  }
};

}  // namespace

void parallel_for_indexed(std::size_t n,
                          const std::function<void(std::size_t)>& body,
                          ForOptions opts) {
  if (n == 0) return;
  expects(static_cast<bool>(body), "parallel_for_indexed needs a body");
  const std::size_t grain = opts.grain == 0 ? 1 : opts.grain;
  const int effective_jobs = resolve_jobs(opts.jobs);
  const std::size_t chunks = (n + grain - 1) / grain;
  if (effective_jobs <= 1 || chunks <= 1) {
    // jobs=1 IS the serial loop: same order, exceptions propagate as-is.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  const std::size_t helpers = std::min<std::size_t>(
      static_cast<std::size_t>(effective_jobs) - 1, chunks - 1);
  auto region = std::make_shared<Region>(n, grain, &body);
  ThreadPool& pool = ThreadPool::instance();
  pool.ensure_workers(static_cast<int>(helpers));
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([region] { region->participate(); });
  }
  region->participate();  // the calling thread is always a participant
  region->wait_done();
  // Move the exception OUT of the region before rethrowing: a stale queued
  // task may drop the last region reference after we return, and it must
  // not co-own (or last-release) the exception object the caller is
  // inspecting in its catch block.
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(region->mutex);
    error = std::move(region->error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace uld3d::parallel
