// Deterministic parallel execution for the sweep/search hot paths.
//
// `parallel_for_indexed(n, body, jobs)` runs `body(i)` for every i in
// [0, n) on a lazy process-wide pool of worker threads, with the calling
// thread always participating.  Every participant claims indices from one
// shared counter, which alone balances the work; the pool behind it is a
// single FIFO task queue.  Callers write into PRE-SIZED slots indexed by
// i, so the assembled output is bit-identical to the serial loop regardless
// of thread count.  With an effective jobs count of 1 (or a single index)
// the primitive IS the serial loop — same code path, same exception
// behaviour, zero pool involvement.
//
// Determinism contract (DESIGN.md §10): for a pure-per-index body the
// result slots, and the exception thrown (if any), are identical at every
// jobs count.  When bodies throw, the exception rethrown after the region
// drains is the one raised by the LOWEST failing index — exactly what the
// serial loop would have thrown first — and indices above it are cancelled
// (not yet claimed indices skip them).  Indices below the first failure are
// always evaluated.
//
// Jobs resolution: explicit per-call override > `set_jobs()` > the
// `ULD3D_JOBS` environment variable > 1 (serial).  The library default is
// deliberately serial so embedders opt in; the CLI opts in to all cores
// via `--jobs` / hardware_concurrency (see tools/uld3d_cli.cpp).
#pragma once

#include <cstddef>
#include <functional>

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

/// Run `body(i)` for every i in [0, n) on `resolve_jobs(jobs)` threads.
/// See the file comment for the determinism and exception contract.  The
/// calling thread always claims indices itself and waits only on running
/// participants, never on queued ones, so this never deadlocks waiting on
/// a saturated pool and nests safely (an inner call on a pool thread just
/// participates).
void parallel_for_indexed(std::size_t n,
                          const std::function<void(std::size_t)>& body,
                          int jobs = 0);

}  // namespace uld3d::parallel
