#include "ajac/solvers/krylov.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ajac/gen/fd.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/solvers/stationary.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "ajac/util/rng.hpp"

namespace ajac::solvers {
namespace {

TEST(ConjugateGradient, SolvesToTrueSolution) {
  const CsrMatrix a = gen::fd_laplacian_2d(12, 12);
  Rng rng(3);
  Vector x_true(static_cast<std::size_t>(a.num_rows()));
  vec::fill_uniform(x_true, rng);
  Vector b(x_true.size());
  a.spmv(x_true, b);
  Vector x0(x_true.size(), 0.0);
  const CgResult r = conjugate_gradient(a, b, x0);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(vec::max_abs_diff(r.x, x_true), 0.0, 1e-6);
}

TEST(ConjugateGradient, ExactInNStepsInTheory) {
  // Finite termination: on a tiny system CG converges to machine
  // precision in at most n iterations.
  const CsrMatrix a = gen::fd_laplacian_1d(12);
  Vector b(12, 1.0);
  Vector x0(12, 0.0);
  CgOptions o;
  o.tolerance = 1e-12;
  const CgResult r = conjugate_gradient(a, b, x0, o);
  ASSERT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 12);
}

TEST(ConjugateGradient, FarFewerIterationsThanJacobi) {
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(20, 20), 5);
  CgOptions co;
  co.tolerance = 1e-8;
  const CgResult cg = conjugate_gradient(p.a, p.b, p.x0, co);
  SolveOptions jo;
  jo.tolerance = 1e-8;
  jo.norm = ResidualNorm::kL2;
  jo.max_iterations = 1000000;
  const SolveResult j = jacobi(p.a, p.b, p.x0, jo);
  ASSERT_TRUE(cg.converged);
  ASSERT_TRUE(j.converged);
  EXPECT_LT(cg.iterations * 10, j.iterations);
}

TEST(ConjugateGradient, JacobiPreconditionerHelpsOnBadScaling) {
  // Badly scaled diagonal: plain CG suffers, Jacobi-PCG recovers.
  CsrMatrix a = gen::fd_laplacian_2d(10, 10);
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.mutable_values();
  // Scale rows/cols by wildly varying factors (symmetric scaling keeps SPD).
  std::vector<double> scale(static_cast<std::size_t>(a.num_rows()));
  Rng rng(9);
  for (double& v : scale) v = std::exp(rng.uniform(-4.0, 4.0));
  for (index_t i = 0; i < a.num_rows(); ++i) {
    for (index_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      values[p] *= scale[i] * scale[col_idx[p]];
    }
  }
  Vector b(static_cast<std::size_t>(a.num_rows()));
  vec::fill_uniform(b, rng);
  Vector x0(b.size(), 0.0);

  CgOptions plain;
  plain.tolerance = 1e-8;
  plain.max_iterations = 5000;
  CgOptions pre = plain;
  pre.jacobi_preconditioner = true;
  const CgResult r_plain = conjugate_gradient(a, b, x0, plain);
  const CgResult r_pre = conjugate_gradient(a, b, x0, pre);
  ASSERT_TRUE(r_pre.converged);
  EXPECT_LT(r_pre.iterations, r_plain.iterations);
}

TEST(ConjugateGradient, CountsSynchronizations) {
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(8, 8), 11);
  const CgResult r = conjugate_gradient(p.a, p.b, p.x0);
  ASSERT_TRUE(r.converged);
  // 2 dots per iteration + 2 startup reductions.
  EXPECT_EQ(r.synchronizations, 2 * r.iterations + 2);
}

TEST(ConjugateGradient, DetectsIndefiniteMatrix) {
  // -Laplacian is negative definite: p'Ap < 0 on the first step.
  CsrMatrix a = gen::fd_laplacian_1d(6);
  for (double& v : a.mutable_values()) v = -v;
  Vector b(6, 1.0);
  Vector x0(6, 0.0);
  const CgResult r = conjugate_gradient(a, b, x0);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 1);
}

TEST(ConjugateGradient, ZeroResidualStartsConverged) {
  const CsrMatrix a = gen::fd_laplacian_1d(5);
  Vector x0(5, 0.0);
  Vector b(5, 0.0);
  const CgResult r = conjugate_gradient(a, b, x0);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
}

}  // namespace
}  // namespace ajac::solvers
