#pragma once
// Cache-line-aligned allocator for hot shared arrays.
//
// Why alignment matters here: the shared-memory runtime splits its vectors
// into contiguous per-thread blocks, and adjacent blocks are written by
// different threads. If a 64-byte cache line straddles a block boundary,
// the two owning threads ping-pong that line on every write (false
// sharing) even though they never touch the same element. Starting every
// allocation on a cache-line boundary makes line boundaries coincide with
// multiples of 64 bytes from element 0, so any block whose byte size is a
// multiple of 64 ends exactly on a line boundary — the equal-block
// partitions the solver defaults to then share no lines at all whenever
// the per-block element count works out to a line multiple (e.g. the
// 256x256 FD benchmarks at 2..16 threads), and at worst one line per
// boundary is shared.

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace ajac {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Minimal std::allocator replacement that over-aligns every allocation to
/// a cache line. Stateless; all instances are interchangeable.
template <class T>
struct CacheAlignedAllocator {
  using value_type = T;

  CacheAlignedAllocator() noexcept = default;
  template <class U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kCacheLineBytes});
  }

  template <class U>
  bool operator==(const CacheAlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// CacheAlignedAllocator that default-initializes: a std::vector of a
/// trivial T sized with it leaves its elements indeterminate instead of
/// zero-filling them, so allocation touches no page and each thread can
/// first-touch (and fill) the slice it will use. Elements must be written
/// before they are read.
template <class T>
struct UninitAlignedAllocator : CacheAlignedAllocator<T> {
  template <class U>
  struct rebind {
    using other = UninitAlignedAllocator<U>;
  };

  UninitAlignedAllocator() noexcept = default;
  template <class U>
  UninitAlignedAllocator(const UninitAlignedAllocator<U>&) noexcept {}

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Cache-line-aligned vector whose sizing constructor leaves trivial
/// elements unwritten (see UninitAlignedAllocator).
template <class T>
using UninitVector = std::vector<T, UninitAlignedAllocator<T>>;

}  // namespace ajac
