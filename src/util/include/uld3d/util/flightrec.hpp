// Flight recorder: a lock-free per-thread ring buffer of recent span
// begin/end and event records, plus an async-signal-safe postmortem dumper
// (DESIGN.md §15).
//
// Only the postmortem dump reads the ring, so the ring records only while a
// dump is armed: install_postmortem() is the switch, and arming is one-way.
// Before it, span_begin/span_end/event return after one relaxed load, and a
// TraceSpan does not call them at all.  While armed, a record is one
// thread-local read, one relaxed fetch_add on a global sequence counter, a
// ≤38-byte name copy into a fixed slot, and a relaxed store, with no clock
// reads, no allocation and no locks.  The committed baselines measure it
// at ~15 ns per event and ~36 ns per span begin/end pair
// (bench_perf_kernels' flightrec_event_ns_per_op and
// flightrec_span_pair_ns_per_op).
//
// On a fatal signal (SIGSEGV/SIGABRT/SIGBUS/SIGFPE) or std::terminate,
// install_postmortem()'s handlers write `<run>.postmortem.json` — RunId,
// provenance, per-thread active-span stacks, the last-N records, and a
// curated metrics snapshot — using only pre-formatted buffers, relaxed
// atomic loads, and write(2).  See flightrec.cpp for the signal-safety rules.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace uld3d::flightrec {

namespace detail {
extern std::atomic<bool> g_armed;
}  // namespace detail

/// Maximum number of threads with their own ring.  Threads beyond this drop
/// their records (counted in records_dropped()) rather than contend.
inline constexpr std::size_t kMaxThreads = 64;
/// Records retained per thread (the "last N" in the postmortem dump).
inline constexpr std::size_t kRingCapacity = 256;
/// Maximum tracked span nesting depth; deeper frames still balance
/// begin/end counts but their names are not retained on the stack.
inline constexpr std::size_t kMaxSpanDepth = 16;
/// Bytes per stored name, including the NUL terminator (longer names are
/// truncated — they come from code literals, so this is a non-issue in
/// practice and keeps record slots fixed-size).
inline constexpr std::size_t kNameBytes = 40;
/// thread_id() result for threads that arrived after kMaxThreads slots
/// were claimed.
inline constexpr std::uint32_t kOverflowThreadId = 0xffffffffu;

/// Record a span entry (only while armed).  A TraceSpan calls it when it
/// opens with the dumper armed, so every armed span pays it
/// (flightrec_span_pair_ns_per_op).
void span_begin(std::string_view name);

/// Record a span exit (only while armed), popping the per-thread
/// active-span stack.
void span_end();

/// Record a point event with an optional argument (e.g. a sweep grid
/// index), only while armed.
void event(std::string_view name, std::uint64_t arg = 0);

/// Dense id of the calling thread's ring slot (assigned on first use, stable
/// for the thread's lifetime), or kOverflowThreadId when the pool is full.
/// Also used by the trace recorder so trace tids, thread names, and
/// postmortem thread identities all agree.
[[nodiscard]] std::uint32_t thread_id();

/// Name the calling thread in the flight recorder *and* the OS (via
/// pthread_setname_np, so gdb/top/perf agree).  Truncated to 15 characters.
void set_thread_name(const char* name);

/// Registered name for a thread id ("" when unset or out of range).  The
/// returned pointer is to process-lifetime storage.
[[nodiscard]] const char* thread_name(std::uint32_t id);

/// Number of ring slots claimed so far (capped at kMaxThreads).
[[nodiscard]] std::size_t thread_count();

/// Records dropped because more than kMaxThreads threads recorded.
[[nodiscard]] std::uint64_t records_dropped();

/// Arm the postmortem dumper, and with it the ring: pre-format the JSON
/// header (RunId, provenance) for the *current* run context, capture
/// signal-safe metric handles, and install the fatal-signal +
/// std::terminate hooks (handlers are installed once; the header/path
/// refresh on every call).  Returns false, arming nothing new, if `path` is
/// too long for the pre-formatted buffer.
bool install_postmortem(const std::string& path);

/// True once install_postmortem() has armed the dumper (and the ring).
/// One relaxed load: TraceSpan tests it on every open.
[[nodiscard]] inline bool postmortem_installed() {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// The path the next dump will be written to ("" when not installed).
[[nodiscard]] const char* postmortem_path();

/// Write the postmortem JSON now (async-signal-safe; also the testing entry
/// point).  `reason` must be a short literal-like string; `signal_number`
/// is 0 for non-signal dumps.  Returns false when not installed or the
/// file cannot be opened.
bool write_postmortem(const char* reason, int signal_number = 0);

}  // namespace uld3d::flightrec
