#include "ajac/util/aligned.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <thread>
#include <utility>

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
