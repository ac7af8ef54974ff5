#include "ajac/core/ajac.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "ajac/gen/fd.hpp"
#include "ajac/sparse/multi_vector.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "ajac/util/rng.hpp"

namespace ajac {
namespace {

TEST(Api, VersionIsNonEmpty) {
  EXPECT_NE(std::string(version()), "");
}

class AllBackends : public ::testing::TestWithParam<Backend> {};

TEST_P(AllBackends, SolvesFdSystemToTolerance) {
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(10, 10), 3);
  SolveConfig cfg;
  cfg.backend = GetParam();
  cfg.parallelism = 4;
  cfg.tolerance = 1e-6;
  cfg.max_iterations = 200000;
  const Solution sol = solve(p.a, p.b, p.x0, cfg);
  EXPECT_TRUE(sol.converged);
  // Verify with an independent residual.
  Vector r(p.b.size());
  p.a.residual(sol.x, p.b, r);
  Vector r0(p.b.size());
  p.a.residual(p.x0, p.b, r0);
  EXPECT_LE(vec::norm1(r) / vec::norm1(r0), 2e-6);
}

INSTANTIATE_TEST_SUITE_P(Backends, AllBackends,
                         ::testing::Values(Backend::kSequential,
                                           Backend::kModel,
                                           Backend::kSharedMemory,
                                           Backend::kDistributedSim));

TEST(Api, SolveSpdMapsSolutionBack) {
  // Raw (unscaled) SPD system: solve_spd must return x with A x ~= b.
  const CsrMatrix a = gen::fd_laplacian_2d(8, 8);
  Rng rng(5);
  Vector x_true(static_cast<std::size_t>(a.num_rows()));
  vec::fill_uniform(x_true, rng);
  Vector b(x_true.size());
  a.spmv(x_true, b);

  SolveConfig cfg;
  cfg.backend = Backend::kSequential;
  cfg.tolerance = 1e-10;
  cfg.max_iterations = 200000;
  const Solution sol = solve_spd(a, b, cfg);
  EXPECT_TRUE(sol.converged);
  EXPECT_NEAR(vec::max_abs_diff(sol.x, x_true), 0.0, 1e-6);
}

TEST(Api, DistributedBackendWithPartitioningMapsBack) {
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(12, 12), 7);
  SolveConfig cfg;
  cfg.backend = Backend::kDistributedSim;
  cfg.parallelism = 9;
  cfg.tolerance = 1e-6;
  cfg.max_iterations = 100000;
  cfg.partition_first = true;
  const Solution sol = solve(p.a, p.b, p.x0, cfg);
  ASSERT_TRUE(sol.converged);
  Vector r(p.b.size());
  p.a.residual(sol.x, p.b, r);
  Vector r0(p.b.size());
  p.a.residual(p.x0, p.b, r0);
  EXPECT_LE(vec::norm1(r) / vec::norm1(r0), 2e-6);
}

TEST(Api, SynchronousFlagSwitchesAlgorithm) {
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(8, 8), 9);
  SolveConfig cfg;
  cfg.backend = Backend::kDistributedSim;
  cfg.parallelism = 4;
  cfg.synchronous = true;
  cfg.tolerance = 1e-5;
  cfg.max_iterations = 100000;
  const Solution sync_sol = solve(p.a, p.b, p.x0, cfg);
  EXPECT_TRUE(sync_sol.converged);
}

TEST(Api, ReportsRelaxationCounts) {
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(6, 6), 11);
  SolveConfig cfg;
  cfg.backend = Backend::kSequential;
  cfg.tolerance = 0.0;
  cfg.max_iterations = 10;
  const Solution sol = solve(p.a, p.b, p.x0, cfg);
  EXPECT_EQ(sol.iterations, 10);
  EXPECT_EQ(sol.relaxations, 10 * p.a.num_rows());
}

TEST(Api, SolveSpdBatchRejectsShortRightHandSide) {
  // b has fewer rows than A: the scaling pass must not read past it.
  const CsrMatrix a = gen::fd_laplacian_2d(6, 6);
  const MultiVector b(a.num_rows() - 1, 2);
  SolveConfig cfg;
  cfg.num_rhs = 2;
  EXPECT_THROW((void)solve_spd_batch(a, b, cfg), std::logic_error);
}

TEST(Api, SolveBatchColumnsMatchSingleSolves) {
  // Synchronous runs are deterministic, so each column of solve_batch must
  // be solve() on that column, field by field and bit for bit.
  const CsrMatrix a = gen::fd_laplacian_2d(12, 12);
  const index_t n = a.num_rows();
  constexpr index_t kCols = 3;
  MultiVector b(n, kCols);
  MultiVector x0(n, kCols);
  Rng rng(31);
  for (index_t c = 0; c < kCols; ++c) {
    for (index_t i = 0; i < n; ++i) b(i, c) = rng.uniform(-1.0, 1.0);
    for (index_t i = 0; i < n; ++i) x0(i, c) = rng.uniform(-1.0, 1.0);
  }
  SolveConfig cfg;
  cfg.backend = Backend::kSharedMemory;
  cfg.synchronous = true;
  cfg.parallelism = 3;
  cfg.tolerance = 1e-8;
  cfg.max_iterations = 40000;
  SolveConfig batch_cfg = cfg;
  batch_cfg.num_rhs = kCols;

  const BatchSolution batch = solve_batch(a, b, x0, batch_cfg);
  ASSERT_EQ(batch.x.num_cols(), kCols);
  for (index_t c = 0; c < kCols; ++c) {
    SCOPED_TRACE(::testing::Message() << "column " << c);
    const auto col = static_cast<std::size_t>(c);
    const Solution single = solve(a, b.column(c), x0.column(c), cfg);
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(batch.x(i, c)),
                std::bit_cast<std::uint64_t>(
                    single.x[static_cast<std::size_t>(i)]))
          << "row " << i;
    }
    EXPECT_EQ(batch.converged[col], single.converged);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batch.rel_residual_1[col]),
              std::bit_cast<std::uint64_t>(single.rel_residual_1));
    EXPECT_EQ(batch.iterations[col], single.iterations);
    EXPECT_EQ(batch.relaxations[col], single.relaxations);
  }
}

}  // namespace
}  // namespace ajac
