#include "ajac/sparse/csr.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>

#include "ajac/gen/fd.hpp"
#include "ajac/sparse/coo.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "ajac/util/rng.hpp"
#include "test_helpers.hpp"

namespace ajac {
namespace {

CsrMatrix tiny() {
  // [ 2 -1  0 ]
  // [-1  2 -1 ]
  // [ 0 -1  2 ]
  return CsrMatrix(3, 3, {0, 2, 5, 7}, {0, 1, 0, 1, 2, 1, 2},
                   {2, -1, -1, 2, -1, -1, 2});
}

TEST(CsrMatrix, BasicAccessors) {
  const CsrMatrix a = tiny();
  EXPECT_EQ(a.num_rows(), 3);
  EXPECT_EQ(a.num_cols(), 3);
  EXPECT_EQ(a.num_nonzeros(), 7);
  EXPECT_EQ(a.row_nnz(0), 2);
  EXPECT_EQ(a.row_nnz(1), 3);
}

TEST(CsrMatrix, AtReturnsStoredAndZero) {
  const CsrMatrix a = tiny();
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 2), 0.0);
}

TEST(CsrMatrix, SpmvMatchesManual) {
  const CsrMatrix a = tiny();
  Vector x{1.0, 2.0, 3.0};
  Vector y(3);
  a.spmv(x, y);
  EXPECT_DOUBLE_EQ(y[0], 2 * 1 - 2.0);
  EXPECT_DOUBLE_EQ(y[1], -1 + 4 - 3);
  EXPECT_DOUBLE_EQ(y[2], -2 + 6);
}

TEST(CsrMatrix, SpmvOmpMatchesSerial) {
  const CsrMatrix a = gen::fd_laplacian_2d(13, 17);
  Rng rng(4);
  Vector x(static_cast<std::size_t>(a.num_rows()));
  vec::fill_uniform(x, rng);
  Vector y1(x.size());
  Vector y2(x.size());
  a.spmv(x, y1);
  a.spmv_omp(x, y2);
  EXPECT_DOUBLE_EQ(vec::max_abs_diff(y1, y2), 0.0);
}

TEST(CsrMatrix, RowDotEqualsSpmvComponent) {
  const CsrMatrix a = gen::fd_laplacian_2d(5, 5);
  Rng rng(9);
  Vector x(static_cast<std::size_t>(a.num_rows()));
  vec::fill_uniform(x, rng);
  Vector y(x.size());
  a.spmv(x, y);
  for (index_t i = 0; i < a.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(a.row_dot(i, x), y[i]);
  }
}

TEST(CsrMatrix, ResidualDefinition) {
  const CsrMatrix a = tiny();
  Vector x{1.0, 1.0, 1.0};
  Vector b{1.0, 0.0, 1.0};
  Vector r(3);
  a.residual(x, b, r);
  EXPECT_DOUBLE_EQ(r[0], 1.0 - 1.0);
  EXPECT_DOUBLE_EQ(r[1], 0.0 - 0.0);
  EXPECT_DOUBLE_EQ(r[2], 1.0 - 1.0);
}

TEST(CsrMatrix, DiagonalExtraction) {
  const CsrMatrix a = tiny();
  const Vector d = a.diagonal();
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 2.0);
  EXPECT_DOUBLE_EQ(d[2], 2.0);
}

TEST(CsrMatrix, TransposeOfSymmetricEqualsSelf) {
  const CsrMatrix a = gen::fd_laplacian_2d(7, 4);
  EXPECT_TRUE(a.transpose() == a);
}

TEST(CsrMatrix, TransposeNonSymmetric) {
  // [1 2]
  // [0 3]
  const CsrMatrix a(2, 2, {0, 2, 3}, {0, 1, 1}, {1, 2, 3});
  const CsrMatrix t = a.transpose();
  EXPECT_DOUBLE_EQ(t.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.at(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(t.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(t.at(1, 1), 3.0);
  EXPECT_TRUE(t.has_sorted_rows());
}

TEST(CsrMatrix, DoubleTransposeIsIdentityOp) {
  const CsrMatrix a(2, 3, {0, 2, 3}, {0, 2, 1}, {1.5, -2.0, 4.0});
  EXPECT_TRUE(a.transpose().transpose() == a);
}

TEST(CsrMatrix, SymmetryPredicates) {
  EXPECT_TRUE(tiny().is_symmetric());
  const CsrMatrix ns(2, 2, {0, 2, 3}, {0, 1, 1}, {1, 2, 3});
  EXPECT_FALSE(ns.is_symmetric());
}

TEST(CsrMatrix, HasFullDiagonal) {
  EXPECT_TRUE(tiny().has_full_diagonal());
  const CsrMatrix missing(2, 2, {0, 1, 2}, {1, 0}, {1.0, 1.0});
  EXPECT_FALSE(missing.has_full_diagonal());
}

TEST(CsrMatrix, IdentityBehaves) {
  const CsrMatrix eye = csr_identity(4);
  EXPECT_EQ(eye.num_nonzeros(), 4);
  Vector x{1, 2, 3, 4};
  Vector y(4);
  eye.spmv(x, y);
  EXPECT_DOUBLE_EQ(vec::max_abs_diff(x, y), 0.0);
}

TEST(CsrMatrix, ValidationRejectsBadRowPtr) {
  EXPECT_THROW(CsrMatrix(2, 2, {0, 2}, {0, 1}, {1, 1}), std::logic_error);
  EXPECT_THROW(CsrMatrix(2, 2, {0, 2, 1}, {0, 1}, {1, 1}), std::logic_error);
}

TEST(CsrMatrix, ValidationRejectsBadColumns) {
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1, 2}, {0, 5}, {1, 1}), std::logic_error);
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1, 2}, {0, -1}, {1, 1}), std::logic_error);
}

/// n x n diagonal CSR (one entry per row) with `bad` rows' row_ptr entry
/// or column made invalid.
struct Faulted {
  HugePageVector<index_t> row_ptr;
  HugePageVector<index_t> col_idx;
  HugePageVector<double> values;
};
Faulted diagonal_arrays(index_t n) {
  Faulted f{HugePageVector<index_t>(static_cast<std::size_t>(n) + 1),
            HugePageVector<index_t>(static_cast<std::size_t>(n)),
            HugePageVector<double>(static_cast<std::size_t>(n), 1.0)};
  for (index_t i = 0; i <= n; ++i) f.row_ptr[i] = i;
  for (index_t i = 0; i < n; ++i) f.col_idx[i] = i;
  return f;
}

// Validation on arrays past kHugePageBytes runs on the OpenMP team; with
// two faults planted it must name the one a serial walk meets first. The
// small twins take the serial code.
TEST(Csr, ValidationNamesLowestNonMonotoneRow) {
  for (const auto& [n, first, second] :
       {std::tuple<index_t, index_t, index_t>{300000, 170000, 280000},
        {10, 3, 7}}) {
    SCOPED_TRACE(n);
    Faulted f = diagonal_arrays(n);
    EXPECT_EQ(f.row_ptr.size() * sizeof(index_t) >= kHugePageBytes,
              n == 300000);
    for (index_t row : {second, first}) f.row_ptr[row + 1] = row - 1;
    const std::string msg = testing::rejection_message([&] {
      (void)CsrMatrix(n, n, std::move(f.row_ptr), std::move(f.col_idx),
                      std::move(f.values));
    });
    EXPECT_NE(msg.find("row_ptr not monotone at row " + std::to_string(first)),
              std::string::npos)
        << msg;
  }
}

TEST(Csr, ValidationNamesFirstOutOfRangeColumn) {
  for (const auto& [n, first, second] :
       {std::tuple<index_t, index_t, index_t>{300000, 170000, 280000},
        {10, 3, 7}}) {
    SCOPED_TRACE(n);
    Faulted f = diagonal_arrays(n);
    f.col_idx[first] = n + 7;
    f.col_idx[second] = -3;
    const std::string msg = testing::rejection_message([&] {
      (void)CsrMatrix(n, n, std::move(f.row_ptr), std::move(f.col_idx),
                      std::move(f.values));
    });
    EXPECT_NE(msg.find("column index " + std::to_string(n + 7) +
                       " out of range [0," + std::to_string(n) + ")"),
              std::string::npos)
        << msg;
  }
}

TEST(Csr, LargeCopyIsBitwiseEqual) {
  // FD 512²'s values (~10.5 MB) are not a whole number of 2 MiB pieces, so
  // the copy's last piece is partial.
  const CsrMatrix a = gen::fd_laplacian_2d(512, 512);
  ASSERT_NE(a.values().size_bytes() % kHugePageBytes, 0U);
  const CsrMatrix copy = a;
  testing::expect_csr_bitwise_equal(copy, a);
  CsrMatrix assigned;
  assigned = a;
  testing::expect_csr_bitwise_equal(assigned, a);
}

TEST(CsrMatrix, EmptyMatrixIsValid) {
  const CsrMatrix a(0, 0, {0}, {}, {});
  EXPECT_EQ(a.num_rows(), 0);
  EXPECT_EQ(a.num_nonzeros(), 0);
}

// CsrMatrix's small arrays make the plain heap calls std::vector makes,
// not the cache-line-aligned ones the solve's arrays make: glibc serves
// 64-byte-aligned blocks of 128 KiB and more from fresh mappings, which
// cost FD 64²'s set-up (fd2d-tol) ~160 minor faults on every repetition.
static_assert(HugePageVector<double>::allocator_type::kPlainHeap);
static_assert(HugePageVector<index_t>::allocator_type::kPlainHeap);
static_assert(!AlignedVector<double>::allocator_type::kPlainHeap);

TEST(Csr, LargeArraysTakeStaggeredHugePages) {
  // FD 512²: row_ptr is just over 2 MiB, col_idx and values ~10 MB each,
  // so all three take the huge-page path, each less than 4 KiB past its
  // 2 MiB base. col_idx and values are streamed together by every sweep,
  // so they must start at different offsets modulo 4 KiB. Whether the
  // kernel grants huge pages depends on the host, so it is not asserted.
  const auto placed_apart = [](const CsrMatrix& a) {
    const auto offset = [](const void* p) {
      return reinterpret_cast<std::uintptr_t>(p) % kHugePageBytes;
    };
    EXPECT_LT(offset(a.row_ptr().data()), 4096U);
    EXPECT_LT(offset(a.col_idx().data()), 4096U);
    EXPECT_LT(offset(a.values().data()), 4096U);
    EXPECT_NE(offset(a.col_idx().data()) % 4096,
              offset(a.values().data()) % 4096);
  };
  const CsrMatrix a = gen::fd_laplacian_2d(512, 512);
  ASSERT_GE(a.row_ptr().size_bytes(), kHugePageBytes);
  placed_apart(a);

  CsrMatrix copy = a;
  placed_apart(copy);
  EXPECT_EQ(copy, a);
  const CsrMatrix moved = std::move(copy);
  placed_apart(moved);
  EXPECT_EQ(moved, a);
}

TEST(CsrMatrix, PaperFdCountsMatchTable) {
  // The figure captions state exact (rows, nonzeros) pairs; our grid
  // reconstructions must match them.
  EXPECT_EQ(gen::paper_fd_40().num_rows(), 40);
  EXPECT_EQ(gen::paper_fd_40().num_nonzeros(), 174);
  EXPECT_EQ(gen::paper_fd_68().num_rows(), 68);
  EXPECT_EQ(gen::paper_fd_68().num_nonzeros(), 298);
  EXPECT_EQ(gen::paper_fd_272().num_rows(), 272);
  EXPECT_EQ(gen::paper_fd_272().num_nonzeros(), 1294);
  EXPECT_EQ(gen::paper_fd_4624().num_rows(), 4624);
  EXPECT_EQ(gen::paper_fd_4624().num_nonzeros(), 22848);
}

}  // namespace
}  // namespace ajac
