#include "uld3d/util/flightrec.hpp"

#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>

#include "uld3d/util/export.hpp"
#include "uld3d/util/log.hpp"
#include "uld3d/util/metrics.hpp"
#include "uld3d/util/provenance.hpp"
#include "uld3d/util/telemetry.hpp"

// Signal-safety rules for this file (DESIGN.md §15): everything reachable
// from fatal_signal_handler()/terminate_handler() — i.e. write_postmortem()
// and below — may use only async-signal-safe primitives: write(2)/open(2)/
// close(2), relaxed loads of lock-free atomics, and byte copies into
// fixed buffers pre-allocated at install time.  No malloc, no std::string,
// no snprintf (locale-dependent), no mutexes, no function-local statics
// with dynamic initialization.  Everything that needs formatting machinery
// (the run/provenance header, the output path, metric handles) is prepared
// eagerly in install_postmortem() while the process is still healthy.

namespace uld3d::flightrec {
namespace {

enum : std::uint8_t { kTypeNone = 0, kTypeSpanBegin, kTypeSpanEnd, kTypeEvent };

// One record is 56 bytes: a global sequence number (cheaper than a clock
// read and still totally ordered across threads), an argument, a type tag,
// and an inline truncated name.
struct Record {
  std::uint64_t seq = 0;
  std::uint64_t arg = 0;
  std::uint8_t type = kTypeNone;
  char name[kNameBytes - 1] = {};
};

// Per-thread state.  `head` counts records ever written by the owner (the
// ring holds the last kRingCapacity of them); `depth` is the live span
// nesting.  Both are written only by the owning thread with relaxed
// ordering — the dumper reads them racily from the crashing thread, which
// is exactly the fidelity a flight recorder promises (the last few records
// of *other* threads may be mid-update; each field is still tear-free).
struct ThreadRing {
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint32_t> depth{0};
  char name[16] = {};
  char stack[kMaxSpanDepth][kNameBytes] = {};
  Record records[kRingCapacity] = {};
};

// Static pool: zero-initialized BSS (~1 MiB), so ring access never
// allocates and is valid from any context, including signal handlers.
ThreadRing g_rings[kMaxThreads];
std::atomic<std::uint32_t> g_thread_slots{0};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<std::uint64_t> g_sequence{0};

void copy_name(char* dst, std::size_t cap, std::string_view src) {
  const std::size_t n = src.size() < cap - 1 ? src.size() : cap - 1;
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

std::uint32_t acquire_thread_slot() {
  const std::uint32_t id =
      g_thread_slots.fetch_add(1, std::memory_order_relaxed);
  return id < kMaxThreads ? id : kOverflowThreadId;
}

// ---------------------------------------------------------------------------
// Recording (only while armed; the per-record path)

// The one slot claim per thread lives in thread_id(); everything else must
// route through it so the id reported to trace/postmortem consumers is the
// ring actually written to.
inline ThreadRing* this_thread_ring() {
  const std::uint32_t id = thread_id();
  if (id == kOverflowThreadId) return nullptr;
  return &g_rings[id];
}

// The ring a record goes to: none while disarmed, and none (counted as a
// drop) for a thread that arrived after every slot was claimed.
inline ThreadRing* recording_ring() {
  if (!postmortem_installed()) return nullptr;
  ThreadRing* ring = this_thread_ring();
  if (ring == nullptr) g_dropped.fetch_add(1, std::memory_order_relaxed);
  return ring;
}

inline void push(ThreadRing& ring, std::uint8_t type, std::string_view name,
                 std::uint64_t arg) {
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  Record& slot = ring.records[head % kRingCapacity];
  slot.seq = g_sequence.fetch_add(1, std::memory_order_relaxed);
  slot.arg = arg;
  slot.type = type;
  copy_name(slot.name, sizeof slot.name, name);
  ring.head.store(head + 1, std::memory_order_relaxed);
}

}  // namespace

std::atomic<bool> detail::g_armed{false};

std::uint32_t thread_id() {
  thread_local const std::uint32_t id = acquire_thread_slot();
  return id;
}

void span_begin(std::string_view name) {
  ThreadRing* ring = recording_ring();
  if (ring == nullptr) return;
  const std::uint32_t depth = ring->depth.load(std::memory_order_relaxed);
  if (depth < kMaxSpanDepth) {
    copy_name(ring->stack[depth], kNameBytes, name);
  }
  ring->depth.store(depth + 1, std::memory_order_relaxed);
  push(*ring, kTypeSpanBegin, name, depth);
}

void span_end() {
  ThreadRing* ring = recording_ring();
  if (ring == nullptr) return;
  const std::uint32_t depth = ring->depth.load(std::memory_order_relaxed);
  const char* name = "";
  if (depth > 0) {
    ring->depth.store(depth - 1, std::memory_order_relaxed);
    if (depth - 1 < kMaxSpanDepth) name = ring->stack[depth - 1];
  }
  push(*ring, kTypeSpanEnd, name, depth > 0 ? depth - 1 : 0);
}

void event(std::string_view name, std::uint64_t arg) {
  ThreadRing* ring = recording_ring();
  if (ring == nullptr) return;
  push(*ring, kTypeEvent, name, arg);
}

void set_thread_name(const char* name) {
  ThreadRing* ring = this_thread_ring();
  if (ring != nullptr) {
    copy_name(ring->name, sizeof ring->name, name);
  }
#if defined(__linux__)
  char os_name[16];  // pthread_setname_np caps names at 15 chars + NUL
  copy_name(os_name, sizeof os_name, name);
  pthread_setname_np(pthread_self(), os_name);
#endif
}

const char* thread_name(std::uint32_t id) {
  if (id >= kMaxThreads) return "";
  return g_rings[id].name;
}

std::size_t thread_count() {
  const std::uint32_t slots = g_thread_slots.load(std::memory_order_relaxed);
  return slots < kMaxThreads ? slots : kMaxThreads;
}

std::uint64_t records_dropped() {
  return g_dropped.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Postmortem dumper

namespace {

constexpr std::size_t kPathBytes = 512;
constexpr std::size_t kHeaderBytes = 8192;
constexpr std::size_t kMaxMetricHandles = 16;

std::atomic<int> g_dump_claimed{0};
char g_path[kPathBytes] = {};
// Pre-formatted JSON prefix: `{"schema": ..., "run": ..., "provenance": {...}`
// — everything that needs std::string formatting, rendered at install time.
char g_header[kHeaderBytes] = {};

// Metric handles captured at install time.  MetricsRegistry handles are
// stable for the process lifetime and Counter::value()/Gauge is a relaxed
// atomic load, so reading them in a signal handler is safe — unlike
// MetricsRegistry::snapshot(), which takes a mutex and allocates.
struct MetricHandle {
  const char* name = nullptr;  // string literal
  const Counter* counter = nullptr;
};
MetricHandle g_metric_handles[kMaxMetricHandles];
std::size_t g_metric_handle_count = 0;
EventSink* g_event_sink = nullptr;

constexpr int kFatalSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE};
constexpr std::size_t kNumFatalSignals =
    sizeof(kFatalSignals) / sizeof(kFatalSignals[0]);
struct sigaction g_old_actions[kNumFatalSignals];
bool g_handlers_installed = false;

const char* signal_label(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    default: return "signal";
  }
}

// Buffered write(2) wrapper — the only output machinery the dump path uses.
class FdWriter {
 public:
  explicit FdWriter(int fd) : fd_(fd) {}
  ~FdWriter() { flush(); }

  void str(const char* s) { bytes(s, std::strlen(s)); }

  void u64(std::uint64_t v) {
    char digits[20];
    std::size_t n = 0;
    do {
      digits[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0) put(digits[--n]);
  }

  // JSON string payload: names here come from code literals, so escaping
  // just neutralizes anything that would break the document.
  void json_str(const char* s) {
    put('"');
    for (; *s != '\0'; ++s) {
      const unsigned char c = static_cast<unsigned char>(*s);
      put(c == '"' || c == '\\' || c < 0x20 ? '_' : *s);
    }
    put('"');
  }

  void flush() {
    const char* p = buf_;
    std::size_t left = used_;
    while (left > 0) {
      const ssize_t wrote = ::write(fd_, p, left);
      if (wrote <= 0) {
        if (wrote < 0 && errno == EINTR) continue;
        break;
      }
      p += wrote;
      left -= static_cast<std::size_t>(wrote);
    }
    used_ = 0;
  }

 private:
  void put(char c) {
    if (used_ == sizeof buf_) flush();
    buf_[used_++] = c;
  }
  void bytes(const char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) put(p[i]);
  }

  int fd_;
  char buf_[4096];
  std::size_t used_ = 0;
};

const char* record_type_label(std::uint8_t type) {
  switch (type) {
    case kTypeSpanBegin: return "span_begin";
    case kTypeSpanEnd: return "span_end";
    case kTypeEvent: return "event";
    default: return "none";
  }
}

void dump_thread(FdWriter& w, std::uint32_t id, bool dumping_thread) {
  const ThreadRing& ring = g_rings[id];
  w.str("{\"id\": ");
  w.u64(id);
  w.str(", \"name\": ");
  w.json_str(ring.name);
  w.str(", \"dumping\": ");
  w.str(dumping_thread ? "true" : "false");
  const std::uint32_t depth = ring.depth.load(std::memory_order_relaxed);
  w.str(", \"span_depth\": ");
  w.u64(depth);
  w.str(", \"active_spans\": [");
  const std::uint32_t shown =
      depth < kMaxSpanDepth ? depth : static_cast<std::uint32_t>(kMaxSpanDepth);
  for (std::uint32_t i = 0; i < shown; ++i) {
    if (i > 0) w.str(", ");
    w.json_str(ring.stack[i]);
  }
  w.str("], \"records\": [");
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  const std::uint64_t start = head > kRingCapacity ? head - kRingCapacity : 0;
  for (std::uint64_t s = start; s < head; ++s) {
    const Record& r = ring.records[s % kRingCapacity];
    if (s > start) w.str(", ");
    w.str("{\"seq\": ");
    w.u64(r.seq);
    w.str(", \"type\": \"");
    w.str(record_type_label(r.type));
    w.str("\", \"name\": ");
    w.json_str(r.name);
    w.str(", \"arg\": ");
    w.u64(r.arg);
    w.str("}");
  }
  w.str("]}");
}

void notice(const char* reason) {
  // Best-effort stderr breadcrumb so a human tailing the log finds the dump.
  const char* parts[] = {"uld3d: fatal (", reason, "), postmortem: ", g_path,
                         "\n"};
  for (const char* part : parts) {
    const std::size_t len = std::strlen(part);
    if (::write(STDERR_FILENO, part, len) < 0) break;
  }
}

extern "C" void fatal_signal_handler(int sig) {
  if (g_dump_claimed.exchange(1) == 0) {
    write_postmortem(signal_label(sig), sig);
    notice(signal_label(sig));
  }
  // Restore the pre-existing disposition and re-raise so the default action
  // (core dump / kill status) still happens and wait() observers see the
  // real signal.  SIGINT/SIGTERM stay with the checkpoint latch in
  // util/checkpoint.cpp — the two handler sets are disjoint by design.
  for (std::size_t i = 0; i < kNumFatalSignals; ++i) {
    if (kFatalSignals[i] == sig) {
      sigaction(sig, &g_old_actions[i], nullptr);
      break;
    }
  }
  ::raise(sig);
}

[[noreturn]] void terminate_handler() {
  if (g_dump_claimed.exchange(1) == 0) {
    write_postmortem("terminate", 0);
    notice("terminate");
  }
  // abort() delivers SIGABRT; our handler's dump guard is already claimed,
  // so it just restores the default disposition and dies with it.
  std::abort();
}

std::string format_header(const std::string& path) {
  const RunContext ctx = current_run_context();
  const Provenance prov = capture_provenance();
  std::ostringstream os;
  os << "{\"schema\": 1, \"kind\": \"postmortem\", \"run\": \""
     << json_escape(ctx.run_id) << "\", \"path\": \""
     << json_escape(path) << "\", \"provenance\": {\"git_sha\": \""
     << json_escape(prov.git_sha) << "\", \"compiler\": \""
     << json_escape(prov.compiler) << "\", \"build_type\": \""
     << json_escape(prov.build_type) << "\", \"hostname\": \""
     << json_escape(prov.hostname) << "\", \"timestamp_utc\": \""
     << json_escape(prov.timestamp_utc) << "\", \"jobs\": " << prov.jobs
     << ", \"hardware_concurrency\": " << prov.hardware_concurrency << "}";
  return os.str();
}

}  // namespace

bool install_postmortem(const std::string& path) {
  if (path.size() + 1 > kPathBytes) {
    log_warning("flightrec: postmortem path too long, dumper not armed");
    return false;
  }
  const std::string header = format_header(path);
  if (header.size() + 1 > kHeaderBytes) {
    log_warning("flightrec: postmortem header too long, dumper not armed");
    return false;
  }
  std::memcpy(g_path, path.c_str(), path.size() + 1);
  std::memcpy(g_header, header.c_str(), header.size() + 1);

  // Curated snapshot handles: the counters a postmortem reader actually
  // wants next to the ring ("how far did the sweep get, was the cache
  // warm").  find-or-create keeps this list decoupled from registration
  // order; untouched counters just read 0.
  MetricsRegistry& reg = MetricsRegistry::instance();
  static constexpr const char* kCurated[] = {
      "dse.sweep.points",         "dse.sweep.ok",
      "dse.sweep.failed",         "dse.sweep.resumed_points",
      "mapper.mapcache.hits",     "mapper.mapcache.misses",
      "phys.flow.designs",        "trace.dropped_events",
  };
  g_metric_handle_count = 0;
  for (const char* name : kCurated) {
    g_metric_handles[g_metric_handle_count++] = {name, &reg.counter(name)};
  }
  g_event_sink = &EventSink::instance();

  if (!g_handlers_installed) {
    struct sigaction action;
    std::memset(&action, 0, sizeof action);
    action.sa_handler = fatal_signal_handler;
    sigemptyset(&action.sa_mask);
    for (std::size_t i = 0; i < kNumFatalSignals; ++i) {
      sigaction(kFatalSignals[i], &action, &g_old_actions[i]);
    }
    std::set_terminate(terminate_handler);
    g_handlers_installed = true;
  }
  detail::g_armed.store(true, std::memory_order_release);
  return true;
}

const char* postmortem_path() {
  return detail::g_armed.load(std::memory_order_acquire) ? g_path : "";
}

bool write_postmortem(const char* reason, int signal_number) {
  if (!detail::g_armed.load(std::memory_order_acquire)) return false;
  const int fd = ::open(g_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  {
    FdWriter w(fd);
    w.str(g_header);
    w.str(", \"reason\": ");
    w.json_str(reason);
    w.str(", \"signal\": ");
    w.u64(static_cast<std::uint64_t>(signal_number));
    const std::uint32_t dumper = thread_id();
    w.str(", \"threads\": [");
    const std::size_t threads = thread_count();
    for (std::uint32_t id = 0; id < threads; ++id) {
      if (id > 0) w.str(", ");
      dump_thread(w, id, id == dumper);
    }
    w.str("], \"records_dropped\": ");
    w.u64(records_dropped());
    w.str(", \"metrics\": {");
    for (std::size_t i = 0; i < g_metric_handle_count; ++i) {
      if (i > 0) w.str(", ");
      w.json_str(g_metric_handles[i].name);
      w.str(": ");
      w.u64(g_metric_handles[i].counter->value());
    }
    w.str("}, \"events_emitted\": ");
    w.u64(g_event_sink != nullptr ? g_event_sink->emitted() : 0);
    w.str("}\n");
    w.flush();
  }
  ::close(fd);
  return true;
}

}  // namespace uld3d::flightrec
