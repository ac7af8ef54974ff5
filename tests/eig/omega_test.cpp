#include <gtest/gtest.h>

#include <cmath>

#include "ajac/eig/lanczos.hpp"
#include "ajac/gen/fd.hpp"
#include "ajac/gen/fe.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/solvers/stationary.hpp"
#include "ajac/sparse/csr.hpp"

namespace ajac::eig {
namespace {

TEST(OptimalOmega, ClosedFormOn1dLaplacian) {
  // Scaled 1D Laplacian spectrum: 1 - cos(k pi/(n+1)); min+max = 2, so
  // omega* = 1 by symmetry.
  const double omega = optimal_jacobi_omega(gen::fd_laplacian_1d(20));
  EXPECT_NEAR(omega, 1.0, 1e-8);
}

TEST(OptimalOmega, MakesDivergentFeMatrixConverge) {
  gen::FeMeshOptions fo;
  fo.nx = 30;
  fo.ny = 20;
  fo.jitter = 0.35;
  fo.jitter_fraction = 0.15;
  fo.seed = 20180521;
  const auto p = gen::make_problem("fe", gen::fe_laplacian_2d(fo), 3);
  const double omega = optimal_jacobi_omega(p.a);
  EXPECT_LT(omega, 1.0);  // divergent Jacobi needs damping

  solvers::SolveOptions so;
  so.tolerance = 0.0;
  so.max_iterations = 300;
  const auto plain = solvers::jacobi(p.a, p.b, p.x0, so);
  const auto damped = solvers::weighted_jacobi(p.a, p.b, p.x0, omega, so);
  EXPECT_GT(plain.final_rel_residual, 1.0);
  EXPECT_LT(damped.final_rel_residual, 0.5);
}

TEST(OptimalOmega, BeatsArbitraryDampingOnFd) {
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(14, 14), 5);
  const double omega = optimal_jacobi_omega(p.a);
  solvers::SolveOptions so;
  so.tolerance = 1e-8;
  so.max_iterations = 1000000;
  const auto best = solvers::weighted_jacobi(p.a, p.b, p.x0, omega, so);
  const auto under = solvers::weighted_jacobi(p.a, p.b, p.x0, 0.6, so);
  ASSERT_TRUE(best.converged);
  ASSERT_TRUE(under.converged);
  EXPECT_LE(best.iterations, under.iterations);
}

TEST(OptimalOmega, RejectsIndefiniteMatrix) {
  // A with a negative eigenvalue after scaling: lambda_min < 0.
  // Construct I - 2*adjacency on a path: diag 1, offdiag -2 => indefinite.
  const index_t n = 6;
  HugePageVector<index_t> row_ptr{0};
  HugePageVector<index_t> col_idx;
  HugePageVector<double> values;
  for (index_t i = 0; i < n; ++i) {
    if (i > 0) {
      col_idx.push_back(i - 1);
      values.push_back(-2.0);
    }
    col_idx.push_back(i);
    values.push_back(1.0);
    if (i + 1 < n) {
      col_idx.push_back(i + 1);
      values.push_back(-2.0);
    }
    row_ptr.push_back(static_cast<index_t>(col_idx.size()));
  }
  const CsrMatrix a(n, n, std::move(row_ptr), std::move(col_idx),
                    std::move(values));
  EXPECT_THROW({ [[maybe_unused]] const double w = optimal_jacobi_omega(a); }, std::logic_error);
}

}  // namespace
}  // namespace ajac::eig
