// Per-stage resource attribution primitives (DESIGN.md §15).
//
// TraceSpan samples these at entry and exit so stage telemetry events,
// trace summaries, and the metrics export can attribute CPU time,
// allocation volume, and RSS high-water to individual pipeline stages —
// not just wall-clock time, which on a loaded pool says little about who
// is actually hungry.
//
// Semantics:
//  - `cpu_us` is CLOCK_THREAD_CPUTIME_ID of the *calling* thread, so a
//    stage's delta is jobs-independent: it measures the work the executing
//    thread did, not how long the wall waited.
//  - `alloc_bytes` counts bytes *requested* through `operator new` on the
//    calling thread (cumulative; frees are not subtracted — it is an
//    allocation-pressure meter, not a live-heap gauge).  The counting hook
//    is off unless `ULD3D_ALLOC_STATS` is set (or enabled via
//    set_alloc_stats_enabled); when off the reading is 0 and the hook's
//    cost is one relaxed load per allocation.
//  - `rss_hwm_kb` is the *process* RSS high-water (getrusage) at sample
//    time; a stage reports the high-water at its end, answering "had the
//    process peaked by the time this stage finished".
#pragma once

#include <cstdint>

namespace uld3d {

/// A point-in-time resource reading for the calling thread; a stage span
/// reports differences of these (rss_hwm_kb excepted — see above).
struct ResourceSample {
  double cpu_us = 0.0;
  std::uint64_t alloc_bytes = 0;
  std::int64_t rss_hwm_kb = 0;
};

/// CPU time consumed by the calling thread, in microseconds
/// (CLOCK_THREAD_CPUTIME_ID; 0.0 where unavailable).
[[nodiscard]] double thread_cpu_time_us();

/// Cumulative bytes the calling thread has requested via operator new while
/// allocation stats were enabled.
[[nodiscard]] std::uint64_t thread_alloc_bytes();

/// Whether the operator-new counting hook is live.  Lazily seeded from the
/// ULD3D_ALLOC_STATS environment variable ("" or "0" = off).
[[nodiscard]] bool alloc_stats_enabled();
void set_alloc_stats_enabled(bool enabled);

}  // namespace uld3d
