// Crash-safe file writes and interrupt plumbing — the util substrate of the
// checkpoint/restart subsystem (the dse-level sweep state lives in
// uld3d/dse/checkpoint.hpp).
//
// Two pieces:
//
//  * `write_file_atomic(path, content)` — write-temp-then-rename.  The
//    content lands in `<path>.tmp.<pid>` first, is flushed and fsync'd, and
//    only then renamed over `path`.  A process killed mid-write can leave a
//    stale temp file behind but NEVER a torn destination: readers either see
//    the old complete file or the new complete file.  Every emitter of a
//    consumed-later artifact (metrics/trace JSON, BENCH_*.json, CSV tables,
//    sweep checkpoints) writes through this helper.
//
//  * the interrupt flag — an async-signal-safe latch set by SIGINT/SIGTERM
//    once `install_interrupt_handlers()` has been called.  Long runners
//    (dse::run_sweep) poll `interrupt_requested()` between design points,
//    flush a final checkpoint, and unwind with a distinct "interrupted,
//    resumable" status instead of dying mid-state.
#pragma once

#include <string>

namespace uld3d {

/// Write `content` to `path` atomically (write temp + flush + fsync +
/// rename).  On failure the temp file is removed, a warning is logged, and
/// false is returned; `path` is never left half-written.
bool write_file_atomic(const std::string& path, const std::string& content);

/// Install SIGINT/SIGTERM handlers that set the process-wide interrupt
/// flag (and nothing else — the handlers are async-signal-safe).
/// Idempotent; there is no uninstall.
void install_interrupt_handlers();

/// True once an installed handler has caught SIGINT/SIGTERM, or after
/// `set_interrupt_requested(true)`.
[[nodiscard]] bool interrupt_requested();

/// The signal number that set the flag (0 when set programmatically or not
/// set at all).
[[nodiscard]] int interrupt_signal();

/// Set/clear the flag programmatically — tests and in-process cancellation
/// use this instead of raising a real signal.
void set_interrupt_requested(bool requested);

}  // namespace uld3d
