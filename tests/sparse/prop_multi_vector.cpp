// Property suite for MultiVector, the row-major n x k container of the
// batch solvers.
//
// Shapes sweep k = 1, n = 1 and ~200 seeded draws. The layout is part of
// the contract: solve_spd_batch and solver_cli walk a row's k values
// through row(i), so row(i + 1) must be row(i) + k.

#include "ajac/sparse/multi_vector.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "ajac/sparse/vector_ops.hpp"
#include "ajac/util/rng.hpp"
#include "test_helpers.hpp"

namespace ajac {
namespace {

struct Shape {
  index_t n;
  index_t k;
};

/// ~200 shapes: corner cases plus seeded random draws.
std::vector<Shape> shapes(std::uint64_t seed) {
  std::vector<Shape> out = {{1, 1}, {1, 8},  {1, 3},  {2, 1}, {7, 1},
                            {5, 5}, {3, 16}, {17, 2}, {64, 8}};
  Rng rng(seed);
  while (out.size() < 200) {
    const index_t n = 1 + static_cast<index_t>(rng.uniform_index(40));
    const index_t k = 1 + static_cast<index_t>(rng.uniform_index(12));
    out.push_back({n, k});
  }
  return out;
}

void fill_random(MultiVector& m, Rng& rng) {
  for (index_t i = 0; i < m.num_rows(); ++i) {
    for (index_t c = 0; c < m.num_cols(); ++c) {
      m(i, c) = rng.uniform(-1.0, 1.0);
    }
  }
}

void expect_bits(double actual, double expected, const char* what, index_t i,
                 index_t c) {
  ASSERT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(expected))
      << what << " diverged at (" << i << ", " << c << "): " << actual
      << " vs " << expected;
}

TEST(PropMultiVector, AccessorsRoundTripAndColumnsExtract) {
  Rng rng(ajac::testing::test_seed(111));
  for (const Shape& s : shapes(ajac::testing::test_seed(113))) {
    SCOPED_TRACE(::testing::Message() << "n=" << s.n << " k=" << s.k);
    MultiVector m(s.n, s.k);
    ASSERT_EQ(m.num_rows(), s.n);
    ASSERT_EQ(m.num_cols(), s.k);
    fill_random(m, rng);
    const Vector col0 = m.column(0);
    for (index_t i = 0; i < s.n; ++i) {
      expect_bits(col0[static_cast<std::size_t>(i)], m(i, 0), "column", i, 0);
      expect_bits(m.row(i)[s.k - 1], m(i, s.k - 1), "row", i, s.k - 1);
      if (i + 1 < s.n) {
        EXPECT_EQ(m.row(i + 1), m.row(i) + s.k) << "row " << i;
      }
    }
    // set_column writes through the same values column() reads.
    Vector v(static_cast<std::size_t>(s.n));
    vec::fill_uniform(v, rng);
    m.set_column(s.k - 1, v);
    const Vector back = m.column(s.k - 1);
    for (index_t i = 0; i < s.n; ++i) {
      expect_bits(back[static_cast<std::size_t>(i)],
                  v[static_cast<std::size_t>(i)], "set_column", i, s.k - 1);
    }
  }
}

TEST(PropMultiVector, BroadcastReplicatesEveryColumn) {
  Rng rng(ajac::testing::test_seed(125));
  Vector v(37);
  vec::fill_uniform(v, rng);
  for (const index_t k : {1, 2, 8, 13}) {
    const MultiVector m = MultiVector::broadcast(v, k);
    ASSERT_EQ(m.num_rows(), static_cast<index_t>(v.size()));
    ASSERT_EQ(m.num_cols(), k);
    for (index_t c = 0; c < k; ++c) {
      for (index_t i = 0; i < m.num_rows(); ++i) {
        expect_bits(m(i, c), v[static_cast<std::size_t>(i)], "broadcast", i,
                    c);
      }
    }
  }
}

}  // namespace
}  // namespace ajac
