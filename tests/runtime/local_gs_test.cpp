#include <gtest/gtest.h>

#include "ajac/gen/fd.hpp"
#include "ajac/gen/fe.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "ajac/solvers/stationary.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/vector_ops.hpp"

namespace ajac::runtime {
namespace {

TEST(LocalGaussSeidel, SingleThreadIsNaturalGaussSeidel) {
  // One thread owning everything + in-place sweep = sequential GS,
  // deterministic and bitwise comparable.
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(7, 6), 3);
  SharedOptions so;
  so.num_threads = 1;
  so.tolerance = 0.0;
  so.max_iterations = 15;
  so.record_history = false;
  so.local_gauss_seidel = true;
  const SharedResult r = solve_shared(p.a, p.b, p.x0, so);

  solvers::SolveOptions ro;
  ro.tolerance = 0.0;
  ro.max_iterations = 15;
  const auto ref = solvers::gauss_seidel(p.a, p.b, p.x0, ro);
  EXPECT_DOUBLE_EQ(vec::max_abs_diff(r.x, ref.x), 0.0);
}

TEST(LocalGaussSeidel, ConvergesWithFewerRelaxationsThanJacobiSweep) {
  // Single-threaded so the comparison is deterministic (multi-threaded
  // relaxation counts vary with OS scheduling on oversubscribed cores;
  // the distsim InnerSweep tests cover the concurrent case).
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(12, 12), 5);
  SharedOptions base;
  base.num_threads = 1;
  base.tolerance = 1e-6;
  base.max_iterations = 1000000;
  base.record_history = false;

  SharedOptions gs = base;
  gs.local_gauss_seidel = true;
  const SharedResult r_gs = solve_shared(p.a, p.b, p.x0, gs);
  const SharedResult r_j = solve_shared(p.a, p.b, p.x0, base);
  ASSERT_TRUE(r_gs.converged);
  ASSERT_TRUE(r_j.converged);
  EXPECT_LT(r_gs.total_relaxations, r_j.total_relaxations);
}

TEST(LocalGaussSeidel, RejectedInSynchronousMode) {
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(4, 4), 7);
  SharedOptions so;
  so.num_threads = 2;
  so.synchronous = true;
  so.local_gauss_seidel = true;
  EXPECT_THROW(solve_shared(p.a, p.b, p.x0, so), std::logic_error);
}

TEST(LocalGaussSeidel, RejectedWithTraceRecording) {
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(4, 4), 9);
  SharedOptions so;
  so.num_threads = 2;
  so.record_trace = true;
  so.local_gauss_seidel = true;
  EXPECT_THROW(solve_shared(p.a, p.b, p.x0, so), std::logic_error);
}

TEST(LocalGaussSeidel, RescuesPaperFeWhereJacobiDoesNot) {
  // The paper's FE matrix has rho(G) > 1: Jacobi diverges on it, while the
  // in-place sweep converges (Gauss-Seidel converges on any SPD matrix).
  // This is why local_gauss_seidel is the real-thread in-place schedule.
  const auto p = gen::make_problem("fe", gen::paper_fe_3081(), 1);
  const double n = static_cast<double>(p.a.num_rows());
  SharedOptions base;
  base.tolerance = 1e-6;
  base.record_history = false;
  base.final_polish = false;

  // One thread: deterministic. Jacobi's residual grows without bound; the
  // in-place sweep needs ~4k relaxations per row.
  SharedOptions jacobi = base;
  jacobi.num_threads = 1;
  jacobi.max_iterations = 2000;
  const SharedResult r_j = solve_shared(p.a, p.b, p.x0, jacobi);
  EXPECT_FALSE(r_j.converged);
  EXPECT_FALSE(r_j.final_rel_residual_1 <= 1.0) << r_j.final_rel_residual_1;

  SharedOptions gs = base;
  gs.num_threads = 1;
  gs.local_gauss_seidel = true;
  gs.max_iterations = 30000;
  const SharedResult r_gs = solve_shared(p.a, p.b, p.x0, gs);
  EXPECT_TRUE(r_gs.converged);
  EXPECT_LE(r_gs.final_rel_residual_1, 1e-6);

  // Two asynchronous threads: ~4k relaxations per row on an idle host; the
  // cap leaves 7x that, and yielding while ahead of the slowest keeps a
  // loaded host from starving one block.
  gs.num_threads = 2;
  gs.yield = true;
  const SharedResult r_gs2 = solve_shared(p.a, p.b, p.x0, gs);
  EXPECT_TRUE(r_gs2.converged)
      << static_cast<double>(r_gs2.total_relaxations) / n << " relax/n";
  EXPECT_LE(r_gs2.final_rel_residual_1, 1e-6);
}

}  // namespace
}  // namespace ajac::runtime
