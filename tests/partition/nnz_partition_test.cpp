// Tests for nnz_balanced_partition — the blocked/sellcs paths' default
// partitioner (the facade applies it whenever SolveConfig::balance_by_nnz
// holds; see ajac.cpp). Deterministic examples pin the cut placement;
// seeded random sweeps check validity, non-emptiness, and the balance
// bound on arbitrary sparsity.

#include "ajac/partition/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ajac/gen/fd.hpp"
#include "ajac/sparse/coo.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/util/rng.hpp"
#include "test_helpers.hpp"

namespace ajac::partition {
namespace {

index_t part_nnz(const CsrMatrix& a, const Partition& p, index_t k) {
  index_t s = 0;
  for (index_t i = p.part_begin(k); i < p.part_end(k); ++i) s += a.row_nnz(i);
  return s;
}

index_t max_part_nnz(const CsrMatrix& a, const Partition& p) {
  index_t m = 0;
  for (index_t k = 0; k < p.num_parts(); ++k) {
    m = std::max(m, part_nnz(a, p, k));
  }
  return m;
}

TEST(NnzBalancedPartition, UniformRowsMatchRowBalancing) {
  // Equal-nnz rows: the nnz cuts land where the row cuts land.
  const CsrMatrix a(6, 6, {0, 2, 4, 6, 8, 10, 12}, {0, 1, 1, 2, 2, 3, 3, 4,
                    4, 5, 5, 0}, HugePageVector<double>(12, 1.0));
  const Partition p = nnz_balanced_partition(a, 3);
  validate(p, 6);
  EXPECT_EQ(p.block_starts, (std::vector<index_t>{0, 2, 4, 6}));
}

TEST(NnzBalancedPartition, SkewedRowsShiftTheCuts) {
  // Row 0 carries half the nonzeros of a 4-row matrix; with 2 parts the
  // cut must fall right after it, where row balancing would put it at 2.
  CooBuilder coo(4, 4);
  for (index_t j = 0; j < 4; ++j) coo.add(0, j, 1.0);
  coo.add(1, 1, 1.0);
  coo.add(2, 2, 1.0);
  coo.add(3, 3, 1.0);
  coo.add(3, 0, 1.0);
  const CsrMatrix a = coo.to_csr();
  const Partition nnz = nnz_balanced_partition(a, 2);
  validate(nnz, 4);
  EXPECT_EQ(nnz.block_starts[1], 1);
  const Partition rows = contiguous_partition(4, 2);
  EXPECT_LT(max_part_nnz(a, nnz), max_part_nnz(a, rows));
}

TEST(NnzBalancedPartition, SinglePartAndSingleRow) {
  const CsrMatrix a = gen::fd_laplacian_2d(4, 4);
  const Partition one = nnz_balanced_partition(a, 1);
  validate(one, a.num_rows());
  EXPECT_EQ(one.num_parts(), 1);
  EXPECT_EQ(one.part_size(0), a.num_rows());

  const CsrMatrix tiny(1, 1, {0, 1}, {0}, {2.0});
  const Partition p = nnz_balanced_partition(tiny, 3);
  validate(p, 1);
  EXPECT_EQ(p.num_parts(), 3);
  index_t nonempty = 0;
  for (index_t k = 0; k < 3; ++k) nonempty += (p.part_size(k) > 0) ? 1 : 0;
  EXPECT_EQ(nonempty, 1);  // one row to give out
}

TEST(NnzBalancedPartition, RandomMatricesStayValidAndBounded) {
  // 200 seeded draws: validity, every part non-empty while rows remain,
  // and the contiguous-balance bound — no part exceeds the ideal share by
  // more than two rows' worth of nonzeros (each cut lands within one row
  // of its prefix target, and a part is bracketed by two cuts; the
  // non-emptiness clamps only ever force single-row parts, which the
  // max-row terms also cover).
  constexpr int kCases = 200;
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE(::testing::Message()
                 << "case " << c << ", AJAC_TEST_SEED base "
                 << ajac::testing::test_seed());
    Rng rng(ajac::testing::test_seed(11000 + static_cast<std::uint64_t>(c)));
    const index_t n = 1 + static_cast<index_t>(rng.uniform_index(40));
    CooBuilder coo(n, n);
    const auto entries = rng.uniform_index(
        static_cast<std::uint64_t>(n) * 4 + 1);
    for (std::uint64_t e = 0; e < entries; ++e) {
      coo.add(static_cast<index_t>(rng.uniform_index(n)),
              static_cast<index_t>(rng.uniform_index(n)),
              rng.uniform(-2.0, 2.0));
    }
    // A few heavy rows to make the nnz distribution skewed.
    for (int h = 0; h < 3; ++h) {
      const auto i = static_cast<index_t>(rng.uniform_index(n));
      for (index_t j = 0; j < n; ++j) {
        if (rng.uniform() < 0.5) coo.add(i, j, 1.0);
      }
    }
    const CsrMatrix a = coo.to_csr();
    const auto parts =
        1 + static_cast<index_t>(rng.uniform_index(8));
    const Partition p = nnz_balanced_partition(a, parts);
    validate(p, n);
    ASSERT_EQ(p.num_parts(), parts);

    index_t max_row = 0;
    for (index_t i = 0; i < n; ++i) max_row = std::max(max_row, a.row_nnz(i));
    const index_t total = a.num_nonzeros();
    EXPECT_LE(max_part_nnz(a, p), total / parts + 2 * max_row + 1);

    if (n >= parts) {
      for (index_t k = 0; k < parts; ++k) {
        EXPECT_GT(p.part_size(k), 0) << "part " << k << " empty with " << n
                                     << " rows and " << parts << " parts";
      }
    }
  }
}

TEST(NnzBalancedPartition, BeatsRowBalancingOnSkewedGrids) {
  // An FD grid with one dense appended coupling row: row balancing puts
  // the heavy row wherever it falls; nnz balancing isolates it.
  const CsrMatrix grid = gen::fd_laplacian_2d(8, 8);
  const index_t n = grid.num_rows() + 1;
  CooBuilder coo(n, n);
  for (index_t i = 0; i < grid.num_rows(); ++i) {
    const auto cols = grid.row_cols(i);
    const auto vals = grid.row_values(i);
    for (std::size_t e = 0; e < cols.size(); ++e) {
      coo.add(i, cols[e], vals[e]);
    }
  }
  for (index_t j = 0; j < n; ++j) coo.add(n - 1, j, 1.0);
  const CsrMatrix a = coo.to_csr();
  const Partition nnz = nnz_balanced_partition(a, 4);
  const Partition rows = contiguous_partition(n, 4);
  validate(nnz, n);
  EXPECT_LE(max_part_nnz(a, nnz), max_part_nnz(a, rows));
}

TEST(NnzBalancedPartition, Deterministic) {
  const CsrMatrix a = gen::fd_laplacian_2d(9, 7);
  const Partition p1 = nnz_balanced_partition(a, 5);
  const Partition p2 = nnz_balanced_partition(a, 5);
  EXPECT_EQ(p1.block_starts, p2.block_starts);
}

}  // namespace
}  // namespace ajac::partition
