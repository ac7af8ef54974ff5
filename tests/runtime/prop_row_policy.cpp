// Property tests for the row-selection policies
// (ajac/runtime/row_policy.hpp): the PolicyClock stream contract and
// uniform coverage within concentration bounds. Each property sweeps many
// seeds derived from testing::test_seed so the suite runs a few hundred
// seeded cases.

#include "ajac/runtime/row_policy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "ajac/fault/fault_plan.hpp"
#include "test_helpers.hpp"

namespace ajac::runtime {
namespace {

using ajac::testing::test_seed;

TEST(PropRowPolicy, StreamIsCoordinateDeterministic) {
  // Draws are a pure function of (seed, worker, iter, slot): rebuilding the
  // sampler — or drawing the coordinates in any order — changes nothing.
  for (std::uint64_t s = 0; s < 40; ++s) {
    const std::uint64_t seed = test_seed(s);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RowSampler a(RowPolicy::kUniformRandom, seed, /*worker=*/2, 10, 42);
    RowSampler b(RowPolicy::kUniformRandom, seed, /*worker=*/2, 10, 42);
    for (index_t iter = 0; iter < 8; ++iter) {
      for (index_t slot = 0; slot < 32; ++slot) {
        EXPECT_EQ(a.next(iter, slot), b.next(iter, slot));
      }
    }
    // Reversed replay on a fresh sampler: still identical (no hidden
    // sequential state).
    RowSampler c(RowPolicy::kUniformRandom, seed, /*worker=*/2, 10, 42);
    for (index_t iter = 7; iter >= 0; --iter) {
      for (index_t slot = 31; slot >= 0; --slot) {
        EXPECT_EQ(c.next(iter, slot), a.next(iter, slot));
      }
    }
  }
}

TEST(PropRowPolicy, DistinctWorkersAndSeedsDecorrelate) {
  for (std::uint64_t s = 0; s < 20; ++s) {
    const std::uint64_t seed = test_seed(100 + s);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RowSampler w0(RowPolicy::kUniformRandom, seed, 0, 0, 64);
    RowSampler w1(RowPolicy::kUniformRandom, seed, 1, 0, 64);
    RowSampler other(RowPolicy::kUniformRandom, seed + 1, 0, 0, 64);
    int same_worker = 0;
    int same_seed = 0;
    const int draws = 256;
    for (index_t k = 0; k < draws; ++k) {
      if (w0.next(k, 0) == w1.next(k, 0)) ++same_worker;
      if (w0.next(k, 0) == other.next(k, 0)) ++same_seed;
    }
    // Independent uniform streams over 64 rows collide ~1/64 of the time;
    // identical streams would collide 256/256.
    EXPECT_LT(same_worker, draws / 8);
    EXPECT_LT(same_seed, draws / 8);
  }
}

TEST(PropRowPolicy, PolicyClockIndependentOfFaultClock) {
  // The PolicyClock salts the seed, so even at identical (stream, a, b, c)
  // coordinates its bits never track the FaultClock built from the same
  // plan seed — sharing one seed between a fault plan and the policy
  // stream is safe.
  for (std::uint64_t s = 0; s < 40; ++s) {
    const std::uint64_t seed = test_seed(200 + s);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const PolicyClock pc(seed);
    const fault::FaultClock fc(seed);
    for (std::uint64_t a = 0; a < 5; ++a) {
      for (std::uint64_t b = 0; b < 5; ++b) {
        EXPECT_NE(pc.bits(PolicyClock::kRowPick, a, b, 0),
                  fc.bits(fault::FaultClock::kStragglerStream, a, b, 0));
      }
    }
  }
}

TEST(PropRowPolicy, UniformCoverageWithinConcentrationBounds) {
  // Every row of the block is visited T +- 6 sqrt(T) times over T
  // iterations of n draws (Chernoff-style concentration for the binomial
  // count with mean T).
  const index_t n = 64;
  const index_t iters = 2000;
  for (std::uint64_t s = 0; s < 10; ++s) {
    const std::uint64_t seed = test_seed(300 + s);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RowSampler sampler(RowPolicy::kUniformRandom, seed, 0, 0, n);
    std::vector<index_t> counts(static_cast<std::size_t>(n), 0);
    for (index_t iter = 0; iter < iters; ++iter) {
      for (index_t slot = 0; slot < n; ++slot) {
        const index_t i = sampler.next(iter, slot);
        ASSERT_GE(i, 0);
        ASSERT_LT(i, n);
        ++counts[static_cast<std::size_t>(i)];
      }
    }
    const double dev = 6.0 * std::sqrt(static_cast<double>(iters));
    for (index_t i = 0; i < n; ++i) {
      EXPECT_NEAR(static_cast<double>(counts[static_cast<std::size_t>(i)]),
                  static_cast<double>(iters), dev)
          << "row " << i;
    }
  }
}

}  // namespace
}  // namespace ajac::runtime
