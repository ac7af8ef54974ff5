#include "ajac/sparse/scaling.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ajac/gen/fd.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/properties.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "ajac/util/rng.hpp"
#include "test_helpers.hpp"

namespace ajac {
namespace {

TEST(Scaling, SymmetricScalingGivesUnitDiagonal) {
  const CsrMatrix a = gen::fd_laplacian_2d(6, 7);
  const CsrMatrix s = scale_to_unit_diagonal(a);
  EXPECT_TRUE(has_unit_diagonal(s, 1e-14));
  EXPECT_TRUE(s.is_symmetric(1e-14));
}

TEST(Scaling, SymmetricScalingPreservesWdd) {
  // D^{-1/2} A D^{-1/2} of a W.D.D. matrix with equal diagonal stays
  // W.D.D.; for the FD Laplacian the scaled matrix is I - adjacency/4.
  const CsrMatrix s = scale_to_unit_diagonal(gen::fd_laplacian_2d(5, 5));
  EXPECT_TRUE(is_weakly_diag_dominant(s));
  EXPECT_DOUBLE_EQ(s.at(0, 1), -0.25);
}

TEST(Scaling, SymmetricScalingTransformsRhs) {
  const CsrMatrix a = gen::fd_laplacian_2d(4, 4);
  Rng rng(3);
  Vector b(static_cast<std::size_t>(a.num_rows()));
  vec::fill_uniform(b, rng);
  Vector b_scaled = b;
  const CsrMatrix s = scale_to_unit_diagonal(a, &b_scaled);
  // Solution mapping: if s y = b_scaled then x = D^{-1/2} y solves A x = b.
  // Verify on a concrete y by substituting back.
  Vector y(b.size(), 1.0);
  Vector sy(b.size());
  s.spmv(y, sy);
  // A (D^{-1/2} y) must equal D^{1/2} (s y).
  const Vector d = a.diagonal();
  Vector x(b.size());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = y[i] / std::sqrt(d[i]);
  Vector ax(b.size());
  a.spmv(x, ax);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(ax[i], std::sqrt(d[i]) * sy[i], 1e-12);
  }
}

TEST(Scaling, InPlaceScalingMatchesCopyBitwise) {
  // FD 64² is fd2d-tol's set-up: its col_idx and values (160 KiB each)
  // stay on the heap, copied and scaled twice over. FD 512²'s arrays are
  // past kHugePageBytes, so its copy and scaling run on the OpenMP team.
  for (const CsrMatrix& a :
       {gen::fd_laplacian_2d(7, 5), gen::fd_varcoef_2d(6, 4, [](double x,
                                                                double y) {
          return 1.0 + 3.0 * x * y;
        }), gen::fd_laplacian_2d(64, 64), gen::fd_laplacian_2d(512, 512)}) {
    Rng rng(11);
    Vector b(static_cast<std::size_t>(a.num_rows()));
    vec::fill_uniform(b, rng);
    Vector b_copy = b;
    Vector b_moved = b;
    const CsrMatrix from_copy = scale_to_unit_diagonal(a, &b_copy);
    const CsrMatrix in_place = scale_to_unit_diagonal(CsrMatrix(a), &b_moved);
    testing::expect_csr_bitwise_equal(in_place, from_copy);
    EXPECT_EQ(b_moved, b_copy);
  }
}

TEST(Scaling, LargeScalingMatchesSerialLoopBitwise) {
  // The scaling's own arithmetic, written out serially: d_i = 1/sqrt(a_ii),
  // then a_ij *= d_i * d_j.
  const CsrMatrix a = gen::fd_anisotropic_2d(512, 512, 0.3);
  ASSERT_GE(a.row_ptr().size_bytes(), kHugePageBytes);
  const auto n = static_cast<std::size_t>(a.num_rows());
  std::vector<double> d(n);
  for (std::size_t i = 0; i < n; ++i) {
    d[i] = 1.0 / std::sqrt(a.at(static_cast<index_t>(i),
                                static_cast<index_t>(i)));
  }
  CsrMatrix expected = a;
  const auto row_ptr = expected.row_ptr();
  const auto col_idx = expected.col_idx();
  const auto values = expected.mutable_values();
  for (std::size_t i = 0; i < n; ++i) {
    for (index_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      values[p] *= d[i] * d[col_idx[p]];
    }
  }
  testing::expect_csr_bitwise_equal(scale_to_unit_diagonal(a), expected);
}

TEST(Scaling, NonPositiveDiagonalNamesLowestRow) {
  // 300,000 rows: the diagonal is past kHugePageBytes, so the check runs on
  // the OpenMP team; the 10-row twin takes the serial code.
  for (const auto& [n, first, second] :
       {std::tuple<index_t, index_t, index_t>{300000, 170000, 280000},
        {10, 3, 7}}) {
    SCOPED_TRACE(n);
    CsrMatrix a = csr_identity(n);
    a.mutable_values()[static_cast<std::size_t>(first)] = -2.0;
    a.mutable_values()[static_cast<std::size_t>(second)] = 0.0;
    const std::string msg = testing::rejection_message(
        [&] { (void)scale_to_unit_diagonal(std::move(a)); });
    EXPECT_NE(msg.find("diagonal entry " + std::to_string(first) +
                       " = -2 is not positive"),
              std::string::npos)
        << msg;
  }
}

TEST(Scaling, InPlaceScalingRejectsNonPositiveDiagonal) {
  EXPECT_THROW(
      scale_to_unit_diagonal(CsrMatrix(1, 1, {0, 1}, {0}, {0.0})),
      std::logic_error);
}

TEST(Scaling, RowScalingGivesUnitDiagonalAndKeepsSolution) {
  const CsrMatrix a = gen::fd_laplacian_2d(4, 5);
  Rng rng(5);
  Vector x(static_cast<std::size_t>(a.num_rows()));
  vec::fill_uniform(x, rng);
  Vector b(x.size());
  a.spmv(x, b);
  Vector b_scaled = b;
  const CsrMatrix s = scale_rows_by_diagonal(a, &b_scaled);
  EXPECT_TRUE(has_unit_diagonal(s, 1e-14));
  // Same solution: s x = b_scaled.
  Vector sx(x.size());
  s.spmv(x, sx);
  EXPECT_NEAR(vec::max_abs_diff(sx, b_scaled), 0.0, 1e-13);
}

TEST(Scaling, JacobiIterationMatrixHasZeroDiagonal) {
  const CsrMatrix g = jacobi_iteration_matrix(gen::fd_laplacian_2d(4, 4));
  for (index_t i = 0; i < g.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(g.at(i, i), 0.0);
  }
  EXPECT_DOUBLE_EQ(g.at(0, 1), 0.25);
}

TEST(Scaling, JacobiIterationMatrixIsIMinusDInvA) {
  const CsrMatrix a = gen::fd_laplacian_2d(3, 4);
  const CsrMatrix g = jacobi_iteration_matrix(a);
  // x - D^{-1} A x == G x for random x.
  Rng rng(6);
  Vector x(static_cast<std::size_t>(a.num_rows()));
  vec::fill_uniform(x, rng);
  Vector ax(x.size());
  Vector gx(x.size());
  a.spmv(x, ax);
  g.spmv(x, gx);
  const Vector d = a.diagonal();
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(gx[i], x[i] - ax[i] / d[i], 1e-13);
  }
}

TEST(Scaling, EntrywiseAbs) {
  const CsrMatrix a(2, 2, {0, 2, 3}, {0, 1, 1}, {-1.0, 2.0, -3.0});
  const CsrMatrix b = entrywise_abs(a);
  EXPECT_DOUBLE_EQ(b.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(b.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(b.at(1, 1), 3.0);
}

TEST(Scaling, NonPositiveDiagonalRejected) {
  const CsrMatrix a(1, 1, {0, 1}, {0}, {-4.0});
  EXPECT_THROW(scale_to_unit_diagonal(a), std::logic_error);
}

TEST(Scaling, ZeroDiagonalRejectedForRowScaling) {
  const CsrMatrix a(1, 1, {0, 1}, {0}, {0.0});
  EXPECT_THROW(scale_rows_by_diagonal(a), std::logic_error);
  EXPECT_THROW(jacobi_iteration_matrix(a), std::logic_error);
}

}  // namespace
}  // namespace ajac
