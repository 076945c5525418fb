#ifndef RGAE_KERNELS_ALIGNED_H_
#define RGAE_KERNELS_ALIGNED_H_

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

namespace rgae {
namespace kernels {

/// Alignment of every dense numeric buffer, in bytes: one cache line. No
/// kernel needs it (the AVX2 tier loads unaligned), but every Matrix
/// allocation and memstat's byte counts follow from it.
inline constexpr size_t kBufferAlignment = 64;

/// The number of bytes actually allocated for `entries` doubles:
/// std::aligned_alloc requires the size to be a multiple of the alignment,
/// so the payload is rounded up to whole 64-byte lines. The obs memstat
/// counters report this padded size — the true allocation, not the nominal
/// 8 bytes/entry payload.
inline constexpr size_t AlignedBufferBytes(size_t entries) {
  const size_t bytes = entries * sizeof(double);
  return (bytes + kBufferAlignment - 1) / kBufferAlignment * kBufferAlignment;
}

/// Minimal C++17 allocator backed by std::aligned_alloc. Only the pieces
/// std::vector needs; equality is stateless.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}  // NOLINT(runtime/explicit)

  T* allocate(size_t n) {
    if (n == 0) return nullptr;
    const size_t bytes = (n * sizeof(T) + kBufferAlignment - 1) /
                         kBufferAlignment * kBufferAlignment;
    void* p = std::aligned_alloc(kBufferAlignment, bytes);
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, size_t) { std::free(p); }

  /// Default-initializes instead of value-initializing, so a vector of
  /// doubles sized with `AlignedVector(n)` or `resize(n)` is left unset:
  /// every such buffer is written in full before it is read. A fill value,
  /// as in `AlignedVector(n, 0.0)` and `Matrix(rows, cols)`, still fills.
  template <typename U>
  void construct(U* p) {
    std::uninitialized_default_construct_n(p, 1);
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const { return true; }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const { return false; }
};

/// 64-byte-aligned double buffer: the storage type of rgae::Matrix.
using AlignedVector = std::vector<double, AlignedAllocator<double>>;

}  // namespace kernels
}  // namespace rgae

#endif  // RGAE_KERNELS_ALIGNED_H_
