#include "uld3d/util/resource.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <new>

namespace uld3d {
namespace {

// Three-state gate so the operator-new hook costs one relaxed load when
// the feature is off: 0 = environment not consulted yet, 1 = off, 2 = on.
std::atomic<int> g_alloc_state{0};
thread_local std::uint64_t tl_alloc_bytes = 0;

int alloc_state_init() {
  const char* env = std::getenv("ULD3D_ALLOC_STATS");
  const int state =
      (env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0) ? 2 : 1;
  g_alloc_state.store(state, std::memory_order_relaxed);
  return state;
}

// Called from the global operator new replacements below.
inline void note_alloc(std::size_t bytes) {
  int state = g_alloc_state.load(std::memory_order_relaxed);
  if (state == 0) state = alloc_state_init();
  if (state == 2) tl_alloc_bytes += bytes;
}

void* alloc_or_throw(std::size_t size) {
  note_alloc(size);
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* alloc_aligned_or_throw(std::size_t size, std::size_t align) {
  note_alloc(size);
  if (align < sizeof(void*)) align = sizeof(void*);
  if (size == 0) size = 1;
  for (;;) {
    void* p = nullptr;
    if (posix_memalign(&p, align, size) == 0) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

bool alloc_stats_enabled() {
  int state = g_alloc_state.load(std::memory_order_relaxed);
  if (state == 0) state = alloc_state_init();
  return state == 2;
}

void set_alloc_stats_enabled(bool enabled) {
  g_alloc_state.store(enabled ? 2 : 1, std::memory_order_relaxed);
}

std::uint64_t thread_alloc_bytes() { return tl_alloc_bytes; }

double thread_cpu_time_us() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
#else
  return 0.0;
#endif
}

}  // namespace uld3d

// ---------------------------------------------------------------------------
// Global operator new replacements: identical to the defaults (malloc /
// posix_memalign, new-handler loop) plus the per-thread byte counter.
// The deletes are defined alongside for a matched, self-contained family;
// memory from either allocator is free()-compatible.  Under ASan/TSan these
// user replacements are supported — malloc itself stays intercepted, so
// redzones and leak checking still apply underneath.

void* operator new(std::size_t size) { return uld3d::alloc_or_throw(size); }
void* operator new[](std::size_t size) { return uld3d::alloc_or_throw(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return uld3d::alloc_or_throw(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return uld3d::alloc_or_throw(size);
  } catch (...) {
    return nullptr;
  }
}

void* operator new(std::size_t size, std::align_val_t align) {
  return uld3d::alloc_aligned_or_throw(size,
                                       static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return uld3d::alloc_aligned_or_throw(size,
                                       static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return uld3d::alloc_aligned_or_throw(size,
                                         static_cast<std::size_t>(align));
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return uld3d::alloc_aligned_or_throw(size,
                                         static_cast<std::size_t>(align));
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
