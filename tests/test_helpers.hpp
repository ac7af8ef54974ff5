#pragma once
// Shared fixtures/utilities for the test suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ajac/sparse/blocked_csr.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/types.hpp"

namespace ajac::testing {

/// Base seed for randomized and stress tests. Fixed by default so runs are
/// reproducible; override with AJAC_TEST_SEED=<n> to explore other
/// problem/schedule draws. Tests must surface the value they used (e.g.
/// via SCOPED_TRACE) so a failure names the seed that reproduces it.
inline std::uint64_t test_seed(std::uint64_t salt = 0) {
  std::uint64_t base = 0xa5a1c0de;
  if (const char* env = std::getenv("AJAC_TEST_SEED")) {
    char* end = nullptr;
    const auto parsed = std::strtoull(env, &end, 10);
    if (end != env) base = parsed;
  }
  return base + salt;
}

/// Runs f, which must throw std::logic_error; returns its message.
template <typename F>
std::string rejection_message(F&& f) {
  try {
    std::forward<F>(f)();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a std::logic_error";
  return {};
}

/// Small dense-checkable symmetric matrix with unit diagonal:
///   A = I - c * (adjacency of a path graph), W.D.D. for c <= 0.5.
inline CsrMatrix unit_diag_path(index_t n, double c) {
  HugePageVector<index_t> row_ptr{0};
  HugePageVector<index_t> col_idx;
  HugePageVector<double> values;
  for (index_t i = 0; i < n; ++i) {
    if (i > 0) {
      col_idx.push_back(i - 1);
      values.push_back(-c);
    }
    col_idx.push_back(i);
    values.push_back(1.0);
    if (i + 1 < n) {
      col_idx.push_back(i + 1);
      values.push_back(-c);
    }
    row_ptr.push_back(static_cast<index_t>(col_idx.size()));
  }
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

/// Exact spectral radius of the Jacobi iteration matrix of the 2D 5-point
/// Laplacian on an nx-by-ny grid: (cos(pi/(nx+1)) + cos(pi/(ny+1)))/2.
inline double fd2d_jacobi_rho(index_t nx, index_t ny) {
  return 0.5 * (std::cos(M_PI / static_cast<double>(nx + 1)) +
                std::cos(M_PI / static_cast<double>(ny + 1)));
}

/// ||A x - y||_inf.
inline double apply_diff_inf(const CsrMatrix& a, const Vector& x,
                             const Vector& y) {
  Vector ax(static_cast<std::size_t>(a.num_rows()));
  a.spmv(x, ax);
  double acc = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    acc = std::max(acc, std::abs(ax[i] - y[i]));
  }
  return acc;
}

/// The stored value of entry (i, j) of `a`, for tests that edit one value
/// of a generated matrix in place. Throws std::out_of_range when entry
/// (i, j) is not stored.
inline double& stored_entry(CsrMatrix& a, index_t i, index_t j) {
  const auto cols = a.row_cols(i);
  const auto q = static_cast<std::size_t>(std::ranges::find(cols, j) -
                                          cols.begin());
  if (q == cols.size()) {
    throw std::out_of_range("entry (" + std::to_string(i) + ", " +
                            std::to_string(j) + ") is not stored");
  }
  return a.mutable_values()[static_cast<std::size_t>(a.row_ptr()[i]) + q];
}

/// Store +0.0 as entry (i, i + 1) of each row i in [begin, end) of `a`,
/// except row `minus`, which stores -0.0: rows that then compare equal
/// under == but differ in one bit pattern.
inline void store_signed_zeros(CsrMatrix& a, index_t begin, index_t end,
                               index_t minus) {
  for (index_t i = begin; i < end; ++i) {
    stored_entry(a, i, i + 1) = i == minus ? -0.0 : 0.0;
  }
}

/// Asserts a and b have the same shape, row_ptr and col_idx, and values
/// equal bit for bit (so -0.0 differs from 0.0, unlike CsrMatrix::==).
inline void expect_csr_bitwise_equal(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_cols(), b.num_cols());
  ASSERT_TRUE(std::ranges::equal(a.row_ptr(), b.row_ptr()));
  ASSERT_TRUE(std::ranges::equal(a.col_idx(), b.col_idx()));
  ASSERT_EQ(a.values().size(), b.values().size());
  for (std::size_t p = 0; p < a.values().size(); ++p) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.values()[p]),
              std::bit_cast<std::uint64_t>(b.values()[p]))
        << "value " << p;
  }
}

/// The rows of `blk`'s runs of one class (interior when `boundary` is
/// false), ascending: the row order relax_traced walks each class in.
inline std::vector<index_t> rows_of_class(const BlockedCsr::Block& blk,
                                          bool boundary) {
  std::vector<index_t> rows;
  for (const BlockedCsr::RowRun& run : blk.runs) {
    if (run.boundary != boundary) continue;
    for (index_t i = run.begin; i < run.end; ++i) rows.push_back(i);
  }
  return rows;
}

}  // namespace ajac::testing
