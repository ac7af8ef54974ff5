// Property-based COO <-> CSR tests: ~200 seeded random matrices per
// property, checked against a dense accumulation of the same triplets.
// Seeds derive from ajac::testing::test_seed(), so AJAC_TEST_SEED explores
// fresh draws and any failure names the seed that reproduces it.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "ajac/sparse/coo.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/util/rng.hpp"
#include "test_helpers.hpp"

namespace ajac {
namespace {

constexpr int kCases = 200;

struct Triplets {
  index_t rows = 0;
  index_t cols = 0;
  std::vector<index_t> i;
  std::vector<index_t> j;
  std::vector<double> v;
};

Triplets random_triplets(Rng& rng, bool with_duplicates) {
  Triplets t;
  t.rows = 1 + static_cast<index_t>(rng.uniform_index(20));
  t.cols = 1 + static_cast<index_t>(rng.uniform_index(20));
  const auto entries = rng.uniform_index(
      static_cast<std::uint64_t>(t.rows * t.cols) + 1);
  for (std::uint64_t k = 0; k < entries; ++k) {
    t.i.push_back(static_cast<index_t>(rng.uniform_index(t.rows)));
    t.j.push_back(static_cast<index_t>(rng.uniform_index(t.cols)));
    t.v.push_back(rng.uniform(-2.0, 2.0));
    if (with_duplicates && rng.uniform() < 0.3 && !t.i.empty()) {
      // Re-emit an earlier coordinate with a fresh value.
      const auto dup = rng.uniform_index(t.i.size());
      t.i.push_back(t.i[dup]);
      t.j.push_back(t.j[dup]);
      t.v.push_back(rng.uniform(-2.0, 2.0));
    }
  }
  return t;
}

std::map<std::pair<index_t, index_t>, double> dense_sum(const Triplets& t) {
  std::map<std::pair<index_t, index_t>, double> sum;
  for (std::size_t k = 0; k < t.v.size(); ++k) {
    sum[{t.i[k], t.j[k]}] += t.v[k];
  }
  return sum;
}

TEST(PropCooCsr, ConversionMatchesDenseAccumulation) {
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE(::testing::Message()
                 << "case " << c << ", AJAC_TEST_SEED base "
                 << ajac::testing::test_seed());
    Rng rng(ajac::testing::test_seed(1000 + static_cast<std::uint64_t>(c)));
    const Triplets t = random_triplets(rng, /*with_duplicates=*/true);
    CooBuilder coo(t.rows, t.cols);
    for (std::size_t k = 0; k < t.v.size(); ++k) {
      coo.add(t.i[k], t.j[k], t.v[k]);
    }
    const CsrMatrix a = coo.to_csr();
    ASSERT_EQ(a.num_rows(), t.rows);
    ASSERT_EQ(a.num_cols(), t.cols);
    ASSERT_TRUE(a.has_sorted_rows());
    // Every accumulated coordinate is stored with the summed value...
    const auto sum = dense_sum(t);
    ASSERT_EQ(a.num_nonzeros(), static_cast<index_t>(sum.size()));
    for (const auto& [coord, value] : sum) {
      ASSERT_DOUBLE_EQ(a.at(coord.first, coord.second), value);
    }
  }
}

TEST(PropCooCsr, RoundTripThroughTripletsIsIdentity) {
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE(::testing::Message()
                 << "case " << c << ", AJAC_TEST_SEED base "
                 << ajac::testing::test_seed());
    Rng rng(ajac::testing::test_seed(2000 + static_cast<std::uint64_t>(c)));
    const Triplets t = random_triplets(rng, /*with_duplicates=*/false);
    CooBuilder coo(t.rows, t.cols);
    for (std::size_t k = 0; k < t.v.size(); ++k) {
      coo.add(t.i[k], t.j[k], t.v[k]);
    }
    const CsrMatrix a = coo.to_csr();
    // Feed the CSR entries back through a builder: the result must be the
    // same matrix (CSR is a normal form for duplicate-free triplets).
    CooBuilder back(a.num_rows(), a.num_cols());
    for (index_t i = 0; i < a.num_rows(); ++i) {
      const auto cols = a.row_cols(i);
      const auto vals = a.row_values(i);
      for (std::size_t p = 0; p < cols.size(); ++p) {
        back.add(i, cols[p], vals[p]);
      }
    }
    ASSERT_EQ(back.to_csr(), a);
  }
}

TEST(PropCooCsr, SymmetricAddBuildsSymmetricMatrices) {
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE(::testing::Message()
                 << "case " << c << ", AJAC_TEST_SEED base "
                 << ajac::testing::test_seed());
    Rng rng(ajac::testing::test_seed(3000 + static_cast<std::uint64_t>(c)));
    const index_t n = 1 + static_cast<index_t>(rng.uniform_index(16));
    CooBuilder coo(n, n);
    const auto entries = rng.uniform_index(40);
    for (std::uint64_t k = 0; k < entries; ++k) {
      coo.add_symmetric(static_cast<index_t>(rng.uniform_index(n)),
                        static_cast<index_t>(rng.uniform_index(n)),
                        rng.uniform(-1.0, 1.0));
    }
    const CsrMatrix a = coo.to_csr();
    EXPECT_TRUE(a.is_symmetric());
    EXPECT_EQ(a.transpose(), a);
  }
}

TEST(PropCooCsr, DropZerosRemovesExactCancellations) {
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE(::testing::Message()
                 << "case " << c << ", AJAC_TEST_SEED base "
                 << ajac::testing::test_seed());
    Rng rng(ajac::testing::test_seed(4000 + static_cast<std::uint64_t>(c)));
    const index_t n = 2 + static_cast<index_t>(rng.uniform_index(12));
    CooBuilder coo(n, n);
    index_t cancelled = 0;
    const auto entries = 1 + rng.uniform_index(30);
    for (std::uint64_t k = 0; k < entries; ++k) {
      const auto i = static_cast<index_t>(rng.uniform_index(n));
      const auto j = static_cast<index_t>(rng.uniform_index(n));
      const double v = rng.uniform(-1.0, 1.0);
      coo.add(i, j, v);
      if (rng.uniform() < 0.5) {
        coo.add(i, j, -v);  // exact cancellation at (i, j)
        ++cancelled;
      }
    }
    const CsrMatrix kept = coo.to_csr(/*drop_zeros=*/false);
    const CsrMatrix dropped = coo.to_csr(/*drop_zeros=*/true);
    EXPECT_LE(dropped.num_nonzeros(), kept.num_nonzeros());
    for (index_t i = 0; i < n; ++i) {
      for (const double v : dropped.row_values(i)) {
        EXPECT_NE(v, 0.0);
      }
    }
    // Both carry the same numerical content.
    for (index_t i = 0; i < n; ++i) {
      const auto cols = kept.row_cols(i);
      const auto vals = kept.row_values(i);
      for (std::size_t p = 0; p < cols.size(); ++p) {
        EXPECT_EQ(dropped.at(i, cols[p]), vals[p]);
      }
    }
    if (cancelled == 0) {
      EXPECT_EQ(dropped, kept);
    }
  }
}

/// The conversion to_csr specifies, written with std::stable_sort on every
/// row: entries bucketed by row in insertion order, sorted by column
/// stably, duplicates summed in insertion order.
CsrMatrix stable_sort_reference(const Triplets& t, bool drop_zeros) {
  std::vector<std::vector<std::size_t>> by_row(
      static_cast<std::size_t>(t.rows));
  for (std::size_t k = 0; k < t.v.size(); ++k) {
    by_row[static_cast<std::size_t>(t.i[k])].push_back(k);
  }
  HugePageVector<index_t> row_ptr{0};
  HugePageVector<index_t> col_idx;
  HugePageVector<double> values;
  for (auto& row : by_row) {
    std::stable_sort(row.begin(), row.end(), [&](std::size_t a, std::size_t b) {
      return t.j[a] < t.j[b];
    });
    for (std::size_t p = 0; p < row.size();) {
      const index_t col = t.j[row[p]];
      double sum = 0.0;
      for (; p < row.size() && t.j[row[p]] == col; ++p) sum += t.v[row[p]];
      if (drop_zeros && sum == 0.0) continue;
      col_idx.push_back(col);
      values.push_back(sum);
    }
    row_ptr.push_back(static_cast<index_t>(col_idx.size()));
  }
  return CsrMatrix(t.rows, t.cols, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

// Few columns and many entries per row: every row is dense in duplicates,
// rows run from a handful to about a hundred entries (both sides of the
// length where sort implementations switch algorithm), and values span
// six decades so a different summation order would change the sums' bits.
TEST(PropCooCsr, DuplicateHeavyRowsMatchStableSortReferenceBitwise) {
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE(::testing::Message()
                 << "case " << c << ", AJAC_TEST_SEED base "
                 << ajac::testing::test_seed());
    Rng rng(ajac::testing::test_seed(5000 + static_cast<std::uint64_t>(c)));
    Triplets t;
    t.rows = 1 + static_cast<index_t>(rng.uniform_index(6));
    t.cols = 1 + static_cast<index_t>(rng.uniform_index(8));
    const auto entries = rng.uniform_index(
        static_cast<std::uint64_t>(t.rows) * 80 + 1);
    for (std::uint64_t k = 0; k < entries; ++k) {
      t.i.push_back(static_cast<index_t>(rng.uniform_index(t.rows)));
      t.j.push_back(static_cast<index_t>(rng.uniform_index(t.cols)));
      const double scale =
          std::pow(10.0, static_cast<double>(rng.uniform_index(7)) - 3.0);
      // Some exact cancellations so drop_zeros has work to do.
      t.v.push_back(rng.uniform() < 0.1 ? 0.0 : scale * rng.uniform(-1.0, 1.0));
    }
    CooBuilder coo(t.rows, t.cols);
    for (std::size_t k = 0; k < t.v.size(); ++k) {
      coo.add(t.i[k], t.j[k], t.v[k]);
    }
    for (const bool drop : {false, true}) {
      const CsrMatrix got = coo.to_csr(drop);
      const CsrMatrix want = stable_sort_reference(t, drop);
      ASSERT_EQ(got.num_rows(), want.num_rows());
      ASSERT_TRUE(std::ranges::equal(got.row_ptr(), want.row_ptr()));
      for (index_t i = 0; i < got.num_rows(); ++i) {
        ASSERT_TRUE(std::ranges::equal(got.row_cols(i), want.row_cols(i)));
        const auto gv = got.row_values(i);
        const auto wv = want.row_values(i);
        for (std::size_t p = 0; p < gv.size(); ++p) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(gv[p]),
                    std::bit_cast<std::uint64_t>(wv[p]))
              << "row " << i << " entry " << p;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ajac
