#include "uld3d/util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

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

namespace {

/// The lazy process-wide worker pool: one FIFO queue of tasks under one
/// mutex.  Every task is a copy of one region's `participate` closure, and
/// a region balances its indices through its own shared counter, so which
/// worker runs which copy never matters.  Idle workers sleep on the
/// condition variable; the pool only ever grows.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  // Workers hold `this`, so a Pool never moves.
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// Queue `copies` copies of `task`, growing the pool to at least
  /// `copies` workers first.
  void run(std::size_t copies, const std::function<void()>& task) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      while (threads_.size() < copies) {
        const std::size_t self = threads_.size();
        threads_.emplace_back([this, self] { work(self); });
      }
      tasks_.insert(tasks_.end(), copies, task);
    }
    wake_.notify_all();
  }

 private:
  Pool() = default;

  void work(std::size_t self) {
    // Visible in the flight recorder / postmortem dump, Chrome trace
    // thread_name metadata, and OS tools (top -H, gdb, perf).
    char name[16];
    std::snprintf(name, sizeof name, "uld3d-wk%zu", self);
    flightrec::set_thread_name(name);
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
        if (stop_) return;
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task();
    }
  }

  std::mutex mutex_;  ///< guards everything below
  std::condition_variable wake_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Shared state of one parallel_for region.  Heap-allocated (shared_ptr)
/// so a queued-but-never-started pool task outliving the call is a safe
/// no-op: it can only touch `body` after claiming an index, and no index
/// remains once the caller has returned.
struct Region {
  Region(std::size_t n_, const std::function<void(std::size_t)>* body_)
      : n(n_), body(body_) {}

  const std::size_t n;
  const std::function<void(std::size_t)>* body;

  std::atomic<std::size_t> next{0};
  /// Indices above this are skipped — set to the lowest failing index so a
  /// fail-fast sweep stops claiming work past the failure, while every
  /// index BELOW the final first-failure still runs (serial equivalence).
  /// Written only under `mutex`, together with `error`.
  std::atomic<std::size_t> cancel_above{
      std::numeric_limits<std::size_t>::max()};

  std::mutex mutex;
  std::condition_variable done;
  std::size_t active = 0;
  std::exception_ptr error;  ///< thrown by index `cancel_above`, if any

  void participate() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++active;
    }
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      if (i > cancel_above.load(std::memory_order_relaxed)) continue;
      try {
        (*body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (i < cancel_above.load(std::memory_order_relaxed)) {
          error = std::current_exception();
          cancel_above.store(i, std::memory_order_relaxed);
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
                          int jobs) {
  if (n == 0) return;
  expects(static_cast<bool>(body), "parallel_for_indexed needs a body");
  const int effective_jobs = resolve_jobs(jobs);
  if (effective_jobs <= 1 || n <= 1) {
    // jobs=1 IS the serial loop: same order, exceptions propagate as-is.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  const std::size_t helpers = std::min<std::size_t>(
      static_cast<std::size_t>(effective_jobs) - 1, n - 1);
  auto region = std::make_shared<Region>(n, &body);
  Pool::instance().run(helpers, [region] { region->participate(); });
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
