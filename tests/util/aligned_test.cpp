#include "ajac/util/aligned.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "ajac/sparse/types.hpp"

namespace ajac {
namespace {

std::uintptr_t address(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p);
}

/// Elements of T that make an allocation of exactly `bytes`.
template <class T>
constexpr std::size_t elements(std::size_t bytes) {
  return bytes / sizeof(T);
}

TEST(Aligned, SmallAllocationsAreCacheLineAligned) {
  CacheAlignedAllocator<double> alloc;
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                              std::size_t{1000},
                              elements<double>(kHugePageBytes) - 1}) {
    double* p = alloc.allocate(n);
    EXPECT_EQ(address(p) % kCacheLineBytes, 0U) << n << " doubles";
    p[0] = 1.0;
    p[n - 1] = 2.0;
    alloc.deallocate(p, n);
  }
}

TEST(Aligned, LargeAllocationsAreStaggeredModuloFourKiB) {
  // Two successive equal-sized large arrays, as the mirror and its `next`
  // slice are: both cache-line aligned, both writable end to end, and
  // starting at different offsets modulo 4 KiB. Whether the kernel grants
  // huge pages depends on the host, so it is not asserted.
  CacheAlignedAllocator<double> alloc;
  for (const std::size_t bytes :
       {kHugePageBytes, kHugePageBytes + 8, 3 * kHugePageBytes + 4096}) {
    const std::size_t n = elements<double>(bytes);
    double* first = alloc.allocate(n);
    double* second = alloc.allocate(n);
    EXPECT_EQ(address(first) % kCacheLineBytes, 0U);
    EXPECT_EQ(address(second) % kCacheLineBytes, 0U);
    EXPECT_NE(address(first) % 4096, address(second) % 4096) << bytes;
    for (double* p : {first, second}) {
      p[0] = 1.0;
      p[n - 1] = 2.0;
    }
    EXPECT_EQ(first[n - 1] + second[0], 3.0);
    alloc.deallocate(second, n);
    alloc.deallocate(first, n);
  }
}

TEST(Aligned, EveryStaggerOffsetDiffersFromItsNeighbours) {
  // However many large allocations a thread has made, the next two start
  // at different offsets modulo 4 KiB: walk the counter through more than
  // one full cycle of offsets.
  CacheAlignedAllocator<std::int32_t> alloc;
  const std::size_t n = elements<std::int32_t>(kHugePageBytes);
  std::int32_t* prev = alloc.allocate(n);
  for (int k = 0; k < 20; ++k) {
    std::int32_t* next = alloc.allocate(n);
    EXPECT_NE(address(prev) % 4096, address(next) % 4096) << "pair " << k;
    alloc.deallocate(prev, n);
    prev = next;
  }
  alloc.deallocate(prev, n);
}

TEST(Aligned, UninitVectorResizeSwapAndShrinkRoundTrip) {
  // Growth and shrinking cross the large-allocation threshold in both
  // directions, so every reallocation frees a block of the other path.
  const std::size_t large = elements<double>(kHugePageBytes) + 17;
  UninitVector<double> v(100);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  v.resize(large);
  for (std::size_t i = 100; i < v.size(); ++i) v[i] = static_cast<double>(i);
  EXPECT_EQ(address(v.data()) % kCacheLineBytes, 0U);

  UninitVector<double> w(large / 2);
  w[0] = -1.0;
  std::swap(v, w);
  ASSERT_EQ(w.size(), large);
  ASSERT_EQ(v.size(), large / 2);
  EXPECT_EQ(v[0], -1.0);
  for (std::size_t i = 0; i < w.size(); ++i) {
    ASSERT_EQ(w[i], static_cast<double>(i)) << i;
  }

  w.resize(50);
  w.shrink_to_fit();
  ASSERT_EQ(w.size(), 50U);
  for (std::size_t i = 0; i < w.size(); ++i) {
    ASSERT_EQ(w[i], static_cast<double>(i)) << i;
  }
  EXPECT_EQ(address(w.data()) % kCacheLineBytes, 0U);

  UninitVector<double> copy = v;
  ASSERT_EQ(copy.size(), v.size());
  EXPECT_EQ(copy[0], -1.0);
  EXPECT_NE(copy.data(), v.data());
}

TEST(Aligned, LargeAllocationFreedOnAnotherThread) {
  // The blocked layout's arrays are allocated on their owners' threads and
  // freed on the caller's: deallocate must not depend on the allocating
  // thread's state.
  UninitVector<double> v;
  std::thread owner([&v] {
    v.resize(elements<double>(kHugePageBytes) * 2);
    v.back() = 4.0;
  });
  owner.join();
  EXPECT_EQ(v.back(), 4.0);
  v = UninitVector<double>();
  EXPECT_TRUE(v.empty());
}

/// The 2 MiB base of a large block, and a pointer's offset from it.
std::uintptr_t base_of(const void* p) {
  return address(p) & ~(kHugePageBytes - 1);
}
std::uintptr_t offset_of(const void* p) { return address(p) - base_of(p); }

detail::LargeBlockStats cache_stats() {
  return detail::LargeBlockCache::instance().stats();
}

TEST(Aligned, FreedLargeBlockIsReusedBySameSize) {
  // The block comes back at the same base, at this thread's next stagger
  // offset, and holds a whole array again.
  CacheAlignedAllocator<double> alloc;
  const std::size_t n = elements<double>(3 * kHugePageBytes / 2);
  double* first = alloc.allocate(n);
  first[0] = 1.0;
  first[n - 1] = 2.0;
  const std::uintptr_t first_base = base_of(first);
  const std::uintptr_t first_offset = offset_of(first);
  alloc.deallocate(first, n);

  const detail::LargeBlockStats before = cache_stats();
  double* second = alloc.allocate(n);
  EXPECT_EQ(cache_stats().fresh_maps, before.fresh_maps);
  EXPECT_EQ(base_of(second), first_base);
  EXPECT_EQ(offset_of(second),
            (first_offset + detail::kStaggerBytes) %
                (detail::kStaggerSlots * detail::kStaggerBytes));
  for (std::size_t i = 0; i < n; ++i) second[i] = static_cast<double>(i);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(second[i], static_cast<double>(i)) << i;
  }
  alloc.deallocate(second, n);
}

TEST(Aligned, LargeRequestOfAnotherSizeMapsFresh) {
  // A block longer than the peak of live bytes cannot be in the cache, so
  // the request maps fresh and leaves the freed block of the other size
  // where it is.
  CacheAlignedAllocator<double> alloc;
  const std::size_t small = elements<double>(3 * kHugePageBytes / 2);
  double* freed = alloc.allocate(small);
  alloc.deallocate(freed, small);

  const detail::LargeBlockStats before = cache_stats();
  const std::size_t other =
      elements<double>(before.peak_live_bytes + kHugePageBytes);
  double* fresh = alloc.allocate(other);
  const detail::LargeBlockStats after = cache_stats();
  EXPECT_EQ(after.fresh_maps, before.fresh_maps + 1);
  EXPECT_EQ(after.cached_bytes, before.cached_bytes);
  EXPECT_NE(base_of(fresh), base_of(freed));
  fresh[0] = 1.0;
  fresh[other - 1] = 2.0;
  alloc.deallocate(fresh, other);
}

TEST(Aligned, CachedBytesNeverExceedLivePeak) {
  // Each request is longer than every block so far, so each maps fresh
  // and raises the peak; freeing them all one after another would cache
  // more than the peak unless the oldest are unmapped.
  CacheAlignedAllocator<std::int32_t> alloc;
  const auto check = [](const char* when) {
    const detail::LargeBlockStats s = cache_stats();
    EXPECT_LE(s.cached_bytes, s.peak_live_bytes) << when;
  };
  std::size_t freed_bytes = 0;
  for (int k = 0; k < 4; ++k) {
    const std::size_t n = elements<std::int32_t>(
        cache_stats().peak_live_bytes + kHugePageBytes);
    std::int32_t* p = alloc.allocate(n);
    check("after allocate");
    p[n - 1] = k;
    alloc.deallocate(p, n);
    freed_bytes += detail::block_length(n * sizeof(std::int32_t));
    check("after deallocate");
  }
  EXPECT_LT(cache_stats().cached_bytes, freed_bytes);

  // Many blocks of mixed sizes, held together and freed in another order.
  std::vector<std::pair<std::int32_t*, std::size_t>> held;
  for (std::size_t pages = 1; pages <= 6; ++pages) {
    const std::size_t n = elements<std::int32_t>(pages * kHugePageBytes);
    held.emplace_back(alloc.allocate(n), n);
    check("while holding");
  }
  for (std::size_t i = 0; i < held.size(); i += 2) {
    alloc.deallocate(held[i].first, held[i].second);
    check("after freeing evens");
  }
  for (std::size_t i = 1; i < held.size(); i += 2) {
    alloc.deallocate(held[i].first, held[i].second);
    check("after freeing odds");
  }
}

TEST(Aligned, LargeBlockFreedOnAnotherThreadIsReused) {
  // A block freed by another thread, as the caller frees the blocked
  // layout's owner-allocated arrays, is the next one of its length here.
  UninitVector<double> v(elements<double>(3 * kHugePageBytes / 2));
  v.front() = 1.0;
  const std::uintptr_t base = base_of(v.data());
  std::thread other([&v] {
    v.back() = 2.0;
    v = UninitVector<double>();
  });
  other.join();
  const detail::LargeBlockStats before = cache_stats();
  UninitVector<double> w(elements<double>(3 * kHugePageBytes / 2));
  EXPECT_EQ(cache_stats().fresh_maps, before.fresh_maps);
  EXPECT_EQ(base_of(w.data()), base);
  w.back() = 3.0;
  EXPECT_EQ(w.back(), 3.0);
}

TEST(Aligned, ThreadsAllocateAndFreeOneSizeConcurrently) {
  // Two threads allocate, write and free blocks of one length in turn,
  // through the one mutex-guarded cache: at most one block per thread is
  // live at a time, so at most two are ever mapped for them.
  const std::size_t n = elements<double>(5 * kHugePageBytes / 2);
  const std::size_t before = cache_stats().fresh_maps;
  const auto churn = [n](double seed) {
    for (int k = 0; k < 50; ++k) {
      UninitVector<double> v(n);
      v.front() = seed;
      v.back() = seed + k;
      ASSERT_EQ(v.front() + k, v.back());
    }
  };
  std::thread a(churn, 1.0);
  std::thread b(churn, 2.0);
  a.join();
  b.join();
  EXPECT_LE(cache_stats().fresh_maps, before + 2);
}

#if defined(AJAC_ASAN) && AJAC_ASAN
TEST(AlignedDeathTest, UseOfFreedLargeArrayReports) {
  // The freed block sits poisoned in the cache: a read through a
  // dangling pointer is reported, not served stale bytes.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        const std::size_t n = elements<double>(3 * kHugePageBytes / 2);
        UninitVector<double> v(n);
        v[n / 2] = 1.0;
        const volatile double* dangling = v.data();
        v = UninitVector<double>();
        (void)dangling[n / 2];
      },
      "use-after-poison");
}
#endif

TEST(Aligned, VectorIsZeroedAlignedAndKeepsContents) {
  // ajac::Vector holds b, x0 and every solve's x: one case on each side of
  // the large-allocation threshold, through every way the library passes
  // or resizes it.
  const std::size_t large = elements<double>(kHugePageBytes) + 5;
  for (const std::size_t n : {std::size_t{37}, large}) {
    Vector v(n);
    EXPECT_EQ(address(v.data()) % kCacheLineBytes, 0U) << n;
    for (std::size_t i = 0; i < n; ++i) {
      // +0.0, not -0.0: compare the sign too.
      ASSERT_TRUE(v[i] == 0.0 && !std::signbit(v[i])) << n << " at " << i;
    }
    const auto value = [](std::size_t i) {
      return 0.5 * static_cast<double>(i) - 3.0;
    };
    for (std::size_t i = 0; i < n; ++i) v[i] = value(i);
    const auto holds = [&](std::span<const double> s, std::size_t size) {
      if (s.size() != size) return false;
      for (std::size_t i = 0; i < size; ++i) {
        if (s[i] != value(i)) return false;
      }
      return true;
    };
    EXPECT_TRUE(holds(v, n)) << n;

    Vector copy = v;
    EXPECT_NE(copy.data(), v.data());
    EXPECT_EQ(address(copy.data()) % kCacheLineBytes, 0U);
    EXPECT_TRUE(holds(copy, n)) << n;

    Vector moved = std::move(copy);
    EXPECT_TRUE(holds(moved, n)) << n;

    Vector other(3, -1.0);
    std::swap(moved, other);
    EXPECT_TRUE(holds(other, n)) << n;
    ASSERT_EQ(moved.size(), 3U);
    EXPECT_EQ(moved[2], -1.0);

    // Growth value-initializes the new tail and keeps the head, across the
    // threshold when n is small.
    v.resize(n + large);
    EXPECT_EQ(address(v.data()) % kCacheLineBytes, 0U);
    EXPECT_TRUE(holds(std::span<const double>(v).first(n), n)) << n;
    for (std::size_t i = n; i < v.size(); ++i) {
      ASSERT_TRUE(v[i] == 0.0 && !std::signbit(v[i])) << n << " at " << i;
    }
    v.resize(n);
    v.shrink_to_fit();
    EXPECT_TRUE(holds(v, n)) << n;
  }
}

}  // namespace
}  // namespace ajac
