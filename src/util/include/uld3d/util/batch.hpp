// Aligned contiguous arrays for structure-of-arrays batch kernels.
//
// `AlignedVector<T>` is a deliberately minimal grow-only buffer: 64-byte
// aligned storage (cache line / full AVX2 vector), `resize` without value
// preservation, and no per-element construction — exactly what a batch
// scratch that is overwritten every call needs, and nothing a std::vector
// would add (zero-fill on resize, unaligned allocator).  Trivial types
// only.
//
// The intended usage pattern is a thread-local scratch reused across calls
// (see mapper::price_conv): capacity ratchets up to the largest batch
// seen and is never released mid-run, so steady-state batch evaluation
// performs zero heap allocations (visible via ULD3D_ALLOC_STATS).
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <type_traits>

namespace uld3d::util {

inline constexpr std::size_t kBatchAlignment = 64;

template <typename T>
class AlignedVector {
  static_assert(std::is_trivial_v<T>,
                "AlignedVector skips construction; trivial types only");

 public:
  AlignedVector() = default;
  ~AlignedVector() { release(); }

  AlignedVector(const AlignedVector&) = delete;
  AlignedVector& operator=(const AlignedVector&) = delete;
  AlignedVector(AlignedVector&& other) noexcept
      : data_(other.data_), size_(other.size_), capacity_(other.capacity_) {
    other.data_ = nullptr;
    other.size_ = 0;
    other.capacity_ = 0;
  }
  AlignedVector& operator=(AlignedVector&& other) noexcept {
    if (this != &other) {
      release();
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = nullptr;
      other.size_ = 0;
      other.capacity_ = 0;
    }
    return *this;
  }

  /// Set the logical size; existing contents are NOT preserved when the
  /// buffer grows (batch scratches are fully overwritten each call).
  void resize(std::size_t n) {
    if (n > capacity_) {
      release();
      data_ = static_cast<T*>(::operator new[](
          n * sizeof(T), std::align_val_t{kBatchAlignment}));
      capacity_ = n;
    }
    size_ = n;
  }

  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  void release() {
    if (data_ != nullptr) {
      ::operator delete[](data_, std::align_val_t{kBatchAlignment});
      data_ = nullptr;
    }
    capacity_ = 0;
    size_ = 0;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace uld3d::util
