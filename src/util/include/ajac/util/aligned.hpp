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
//
// Large arrays (at least kHugePageBytes) take a second path: their own
// 2 MiB-aligned anonymous mapping, rounded up to whole 2 MiB pages and
// advised MADV_HUGEPAGE. A solve on FD 2048² allocates ~320 MB of such
// arrays (the blocked layout, the shared x, the residual, the mirrors);
// its set-up (generate the matrix, copy it, scale it, draw b and x0)
// another ~840 MB (two CsrMatrix's arrays, the diagonal, b, x0). On
// 4 KiB pages a fresh mapping of that much takes ~78k minor faults per
// solve and ~180k per set-up; on transparent huge pages (THP mode
// `madvise` or `always`) it is one fault per 2 MiB: ~170 per solve,
// ~400 per set-up. When the kernel refuses the advice the mapping keeps
// 4 KiB pages and works the same.
//
// Recycling. The kernel zeroes every page of a fresh mapping before the
// program writes it: allocating and writing 320 MB took 65-73 ms on a
// fresh mapping each time and 32-35 ms on a recycled one (memset, 4-vCPU
// host, THP `madvise`). So a freed mapping is not unmapped but kept in
// one process-wide cache (LargeBlockCache), and the next large
// allocation of a block of exactly its length gets it back, the most
// recently freed first. A block's length is the array's bytes plus room
// for the largest stagger offset (below), rounded up to whole 2 MiB
// pages, so it does not change with the offset an allocation happens to
// get. Repeated set-ups and solves of one size then reuse the mappings,
// and the huge pages in them, of the repetition before: a warm FD 2048²
// set-up takes 0-1 minor faults (404-405 on fresh mappings), a warm
// 4-thread solve 0-3 (159-162). The cache holds at most as many bytes as
// the process's peak of live large bytes, evicting (and unmapping) the
// oldest freed mapping first, so a process keeps up to that many bytes
// mapped after it frees its large arrays. A recycled block holds the
// stale bytes of its last user, not zeros: the vectors that
// value-initialize (AlignedVector, Vector) fill it as they do a fresh
// one, and those that do not (UninitVector, HugePageVector) are written
// before they are read either way. Under AddressSanitizer a cached block
// is poisoned, so a use after free still reports.
//
// Small arrays come from the heap, aligned to the allocator's SmallAlign:
// a cache line for the solve's shared arrays (AlignedVector, Vector), the
// plain operator new that std::vector uses for CsrMatrix's arrays
// (HugePageVector), which every set-up builds, copies and frees.
//
// Staggering. Two equal-sized arrays on 2 MiB boundaries start at the
// same offset modulo every cache-set and 4 KiB-alias stride, so a loop
// that streams them together (the mirror and its `next` slice, x and
// the residual) keeps hitting the same L1 sets and store-to-load alias
// checks: a 5-point sweep over three such arrays ran 7x slower than
// over staggered ones. Each large allocation therefore starts
// next_stagger() bytes past its 2 MiB base: 0, 3, 6, ... cache lines,
// cycling through kStaggerSlots offsets per thread, so consecutive large
// allocations on one thread start at different offsets modulo 4 KiB.
// The counter is thread-local, so the offsets depend only on each
// thread's own allocation sequence. The base is the pointer rounded down
// to 2 MiB, so deallocate recovers the block from the pointer and the
// size alone.

#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "ajac/util/annotate.hpp"

namespace ajac {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Allocations of at least this many bytes get their own 2 MiB-aligned,
/// huge-page-advised mapping (see the header comment); smaller ones come
/// from the heap.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

namespace detail {

/// Large allocations start kStaggerBytes * (0 .. kStaggerSlots - 1) past
/// their 2 MiB base; every offset is below 4 KiB.
inline constexpr std::size_t kStaggerSlots = 8;
inline constexpr std::size_t kStaggerBytes = 3 * kCacheLineBytes;

/// Offset of this thread's next large allocation from its 2 MiB base.
inline std::size_t next_stagger() noexcept {
  thread_local std::size_t count = 0;
  return (count++ % kStaggerSlots) * kStaggerBytes;
}

[[nodiscard]] constexpr std::size_t round_up_huge(
    std::size_t bytes) noexcept {
  return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}

/// Length of the block that holds `bytes` after any stagger offset. It
/// depends on `bytes` alone, so every allocation of one size fits the
/// blocks freed by the others, whichever offsets they had.
[[nodiscard]] constexpr std::size_t block_length(std::size_t bytes) noexcept {
  return round_up_huge(bytes + (kStaggerSlots - 1) * kStaggerBytes);
}

/// A fresh anonymous mapping of `len` bytes (whole 2 MiB pages) on a
/// 2 MiB boundary, advised MADV_HUGEPAGE. Returns its base.
[[nodiscard]] inline void* map_fresh(std::size_t len) {
  // Over-map by one huge page so that a 2 MiB-aligned window of len bytes
  // fits, then unmap the slack on either side of it.
  void* raw = ::mmap(nullptr, len + kHugePageBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto start = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t base =
      (start + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  const std::size_t head = base - start;  // < kHugePageBytes
  if (head > 0) ::munmap(raw, head);
  ::munmap(reinterpret_cast<void*>(base + len), kHugePageBytes - head);
#ifdef MADV_HUGEPAGE
  // Refused when THP is off or unsupported: the mapping keeps 4 KiB pages.
  (void)::madvise(reinterpret_cast<void*>(base), len, MADV_HUGEPAGE);
#endif
  return reinterpret_cast<void*>(base);
}

/// Counters of the large-block cache; bytes are counted in whole blocks.
struct LargeBlockStats {
  std::size_t live_bytes = 0;       ///< handed out and not yet freed
  std::size_t peak_live_bytes = 0;  ///< the most live_bytes has been
  std::size_t cached_bytes = 0;     ///< freed and kept for reuse
  std::size_t fresh_maps = 0;       ///< mappings made so far
};

/// The process's freed large mappings, kept for reuse (see the header
/// comment). A mutex guards it: large allocations are rare, and the
/// blocked layout's arrays are allocated on their owners' threads and
/// freed on the caller's.
class LargeBlockCache {
 public:
  /// The one cache. Never destroyed, so a large array that a static
  /// object frees during static destruction still finds it.
  [[nodiscard]] static LargeBlockCache& instance() {
    static auto* const cache = new LargeBlockCache;
    return *cache;
  }

  /// The base of a mapping of `len` bytes: the most recently freed one of
  /// exactly that length, or a fresh one.
  [[nodiscard]] void* acquire(std::size_t len) {
    const std::lock_guard<std::mutex> lock(mu_);
    // Room for every block to come back, so that release never allocates.
    free_.reserve(free_.size() + live_blocks_ + 1);
    void* base = nullptr;
    for (auto it = free_.rbegin(); it != free_.rend(); ++it) {
      if (it->len == len) {
        base = it->base;
        free_.erase(std::next(it).base());
        stats_.cached_bytes -= len;
        AJAC_ASAN_UNPOISON(base, len);
        break;
      }
    }
    if (base == nullptr) {
      base = map_fresh(len);
      ++stats_.fresh_maps;
    }
    ++live_blocks_;
    stats_.live_bytes += len;
    stats_.peak_live_bytes =
        std::max(stats_.peak_live_bytes, stats_.live_bytes);
    return base;
  }

  /// Take back the mapping at `base` of `len` bytes, then unmap the
  /// oldest freed mappings while the cache holds more bytes than the peak.
  void release(void* base, std::size_t len) noexcept {
    AJAC_ASAN_POISON(base, len);
    const std::lock_guard<std::mutex> lock(mu_);
    --live_blocks_;
    stats_.live_bytes -= len;
    free_.push_back({base, len});  // within the capacity acquire reserved
    stats_.cached_bytes += len;
    while (stats_.cached_bytes > stats_.peak_live_bytes) {
      const Block oldest = free_.front();
      free_.erase(free_.begin());
      stats_.cached_bytes -= oldest.len;
      AJAC_ASAN_UNPOISON(oldest.base, oldest.len);
      ::munmap(oldest.base, oldest.len);
    }
  }

  [[nodiscard]] LargeBlockStats stats() {
    const std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  struct Block {
    void* base;
    std::size_t len;
  };

  LargeBlockCache() = default;

  std::mutex mu_;
  std::vector<Block> free_;  ///< oldest first
  std::size_t live_blocks_ = 0;
  LargeBlockStats stats_;
};

/// A block_length(bytes) block, from the cache or freshly mapped.
/// Returns its start staggered by this thread's next offset. Out of line,
/// like unmap_large, so that the cache's code stays out of every function
/// that inlines an allocator call.
[[nodiscard, gnu::noinline]] inline void* map_large(std::size_t bytes) {
  void* base = LargeBlockCache::instance().acquire(block_length(bytes));
  return static_cast<char*>(base) + next_stagger();
}

/// Return what map_large(bytes) returned as `p` to the cache: its base is
/// p rounded down to 2 MiB.
[[gnu::noinline]] inline void unmap_large(void* p,
                                         std::size_t bytes) noexcept {
  const auto base = reinterpret_cast<std::uintptr_t>(p) & ~(kHugePageBytes - 1);
  LargeBlockCache::instance().release(reinterpret_cast<void*>(base),
                                      block_length(bytes));
}

}  // namespace detail

/// Minimal std::allocator replacement that maps large allocations on
/// staggered huge pages (see the header comment) and aligns small ones to
/// SmallAlign bytes. The default, a cache line, is what the solve's hot
/// shared arrays need; at __STDCPP_DEFAULT_NEW_ALIGNMENT__ the small path
/// makes the plain heap calls std::allocator makes (HugePageVector).
/// Stateless; all instances of one SmallAlign are interchangeable.
template <class T, std::size_t SmallAlign = kCacheLineBytes>
struct CacheAlignedAllocator {
  using value_type = T;
  /// Whether the small path is the plain operator new(bytes).
  static constexpr bool kPlainHeap =
      SmallAlign <= __STDCPP_DEFAULT_NEW_ALIGNMENT__;
  template <class U>
  struct rebind {
    using other = CacheAlignedAllocator<U, SmallAlign>;
  };

  CacheAlignedAllocator() noexcept = default;
  template <class U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U, SmallAlign>&) noexcept {
  }

  [[nodiscard]] T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes >= kHugePageBytes) {
      return static_cast<T*>(detail::map_large(bytes));
    }
    if constexpr (kPlainHeap) {
      return static_cast<T*>(::operator new(bytes));
    } else {
      return static_cast<T*>(
          ::operator new(bytes, std::align_val_t{SmallAlign}));
    }
  }
  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes >= kHugePageBytes) {
      detail::unmap_large(p, bytes);
      return;
    }
    if constexpr (kPlainHeap) {
      ::operator delete(p);
    } else {
      ::operator delete(p, std::align_val_t{SmallAlign});
    }
  }

  template <class U>
  bool operator==(
      const CacheAlignedAllocator<U, SmallAlign>&) const noexcept {
    return true;
  }
};

/// CacheAlignedAllocator that default-initializes: a std::vector of a
/// trivial T sized with it leaves its elements indeterminate instead of
/// zero-filling them, so allocation touches no page and each thread can
/// first-touch (and fill) the slice it will use. Elements must be written
/// before they are read.
template <class T, std::size_t SmallAlign = kCacheLineBytes>
struct UninitAlignedAllocator : CacheAlignedAllocator<T, SmallAlign> {
  template <class U>
  struct rebind {
    using other = UninitAlignedAllocator<U, SmallAlign>;
  };

  UninitAlignedAllocator() noexcept = default;
  template <class U>
  UninitAlignedAllocator(const UninitAlignedAllocator<U, SmallAlign>&) noexcept {
  }

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Cache-line-aligned vector, on staggered huge pages when large; its
/// sizing constructor value-initializes, as std::vector's does.
template <class T>
using AlignedVector = std::vector<T, CacheAlignedAllocator<T>>;

/// Vector on staggered huge pages when large, and on the plain heap calls
/// std::vector makes when small: CsrMatrix's arrays. Not cache-line
/// aligned when small: glibc (2.36) serves 64-byte-aligned blocks of
/// 128 KiB and more from fresh mappings or a heap top it trims and
/// regrows, and FD 64²'s set-up, whose col_idx and values are 160 KiB,
/// took 159 minor faults each time that way against 0 on the plain heap.
/// Like UninitVector, its sizing constructor and resize leave trivial
/// elements unwritten, so a copy can be one memcpy into a sized vector
/// (std::vector's own copy goes element by element for any allocator
/// but std::allocator: 27-32 ms against 17-21 ms for 168 MB).
template <class T>
using HugePageVector = std::vector<
    T, UninitAlignedAllocator<T, __STDCPP_DEFAULT_NEW_ALIGNMENT__>>;

/// Cache-line-aligned vector whose sizing constructor leaves trivial
/// elements unwritten (see UninitAlignedAllocator).
template <class T>
using UninitVector = std::vector<T, UninitAlignedAllocator<T>>;

}  // namespace ajac
