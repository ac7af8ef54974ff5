// Concurrency stress harness for the full shared-memory Jacobi runtime
// (designed to run under ThreadSanitizer: `ctest --preset tsan`).
//
// Sweeps solve_shared across thread counts, modes (async, sync, local
// Gauss-Seidel, traced), and scheduler pressure (yield on/off, injected
// delays) — the configurations whose interleavings differ most. Each run
// verifies the solver's own postconditions, so this doubles as a
// correctness soak when run without instrumentation. Oversubscription is
// intentional: the host has fewer cores than the largest thread count, so
// threads get descheduled mid-iteration, which is exactly the regime the
// paper's termination discussion (Sec. VI) worries about.

#include "ajac/runtime/shared_jacobi.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "ajac/fault/fault_plan.hpp"
#include "ajac/gen/fd.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/model/trace.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/multi_vector.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "test_helpers.hpp"

namespace ajac::runtime {
namespace {

// Problem draws are salted off ajac::testing::test_seed(), so a failing
// configuration reproduces with AJAC_TEST_SEED=<logged value>.
gen::LinearProblem small_problem(std::uint64_t salt) {
  return gen::make_problem("fd", gen::fd_laplacian_2d(10, 10),
                           ajac::testing::test_seed(salt));
}

void verify_result(const gen::LinearProblem& p, const SharedResult& r,
                   double tolerance) {
  SCOPED_TRACE(::testing::Message()
               << "reproduce with AJAC_TEST_SEED="
               << ajac::testing::test_seed() << " (base seed)");
  EXPECT_TRUE(r.converged);
  Vector res(p.b.size());
  p.a.residual(r.x, p.b, res);
  Vector r0(p.b.size());
  p.a.residual(p.x0, p.b, r0);
  EXPECT_LE(vec::norm1(res) / vec::norm1(r0), tolerance * 1.5);
}

TEST(StressAsyncSolve, ThreadCountSweep) {
  const auto p = small_problem(31);
  for (index_t threads : {1, 2, 4, 8}) {
    SharedOptions so;
    so.num_threads = threads;
    so.tolerance = 1e-5;
    so.max_iterations = 200000;
    so.record_history = false;
    so.yield = true;  // fine-grained round-robin on oversubscribed hosts
    const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
    verify_result(p, r, so.tolerance);
  }
}

TEST(StressAsyncSolve, SynchronousBarrierSweep) {
  const auto p = small_problem(33);
  for (index_t threads : {2, 4}) {
    SharedOptions so;
    so.num_threads = threads;
    so.synchronous = true;
    so.tolerance = 1e-5;
    so.max_iterations = 20000;
    so.record_history = true;
    const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
    verify_result(p, r, so.tolerance);
  }
}

TEST(StressAsyncSolve, LocalGaussSeidelUnderPressure) {
  const auto p = small_problem(35);
  SharedOptions so;
  so.num_threads = 4;
  so.local_gauss_seidel = true;
  so.tolerance = 1e-5;
  so.max_iterations = 200000;
  so.record_history = false;
  so.yield = true;
  const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
  verify_result(p, r, so.tolerance);
}

TEST(StressAsyncSolve, TracedSeqlockUnderPressure) {
  // Seqlock path exercised by every off-diagonal read of every
  // relaxation, with yields forcing retries.
  const auto p = small_problem(37);
  SharedOptions so;
  so.num_threads = 4;
  so.tolerance = 0.0;
  so.max_iterations = 30;
  so.record_trace = true;
  so.record_history = false;
  so.yield = true;
  const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
  ASSERT_TRUE(r.trace.has_value());
  const auto analysis = model::analyze_trace(*r.trace);
  EXPECT_EQ(analysis.total_relaxations, r.total_relaxations);
  EXPECT_EQ(analysis.orphaned, 0);
}

TEST(StressAsyncSolve, BlockedKernelThreadSweep) {
  // The default kernel is already Blocked; pin it explicitly so this test
  // keeps stressing the blocked path (private mirror + ghost reads + the
  // BlockedCsr constructor's own parallel first-touch fill) even if the
  // default ever changes. Oversubscribed + yield maximizes interleavings
  // of boundary-row ghost reads against neighbor commits under TSan.
  const auto p = small_problem(43);
  for (index_t threads : {1, 2, 4, 8}) {
    SharedOptions so;
    so.num_threads = threads;
    so.kernel = KernelKind::kBlocked;
    so.tolerance = 1e-5;
    so.max_iterations = 200000;
    so.record_history = false;
    so.yield = true;
    const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
    verify_result(p, r, so.tolerance);
  }
}

TEST(StressAsyncSolve, ReferenceKernelStillSound) {
  // The reference path remains the differential-testing oracle; keep it
  // under the same TSan pressure as the blocked default.
  const auto p = small_problem(45);
  for (index_t threads : {2, 4}) {
    SharedOptions so;
    so.num_threads = threads;
    so.kernel = KernelKind::kReference;
    so.tolerance = 1e-5;
    so.max_iterations = 200000;
    so.record_history = false;
    so.yield = true;
    const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
    verify_result(p, r, so.tolerance);
  }
}

TEST(StressAsyncSolve, BlockedTracedSeqlockUnderPressure) {
  // Blocked + record_trace: ghost reads go through the versioned seqlock
  // while local reads bypass it via the mirror; the mirror's version
  // bookkeeping must agree with the seqlock's (analyze_trace would report
  // orphaned reads if a mirrored version never materialized).
  const auto p = small_problem(47);
  SharedOptions so;
  so.num_threads = 4;
  so.kernel = KernelKind::kBlocked;
  so.tolerance = 0.0;
  so.max_iterations = 30;
  so.record_trace = true;
  so.record_history = false;
  so.yield = true;
  const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
  ASSERT_TRUE(r.trace.has_value());
  const auto analysis = model::analyze_trace(*r.trace);
  EXPECT_EQ(analysis.total_relaxations, r.total_relaxations);
  EXPECT_EQ(analysis.orphaned, 0);
}

TEST(StressAsyncSolve, BlockedLocalGaussSeidelUnderPressure) {
  const auto p = small_problem(49);
  SharedOptions so;
  so.num_threads = 4;
  so.kernel = KernelKind::kBlocked;
  so.local_gauss_seidel = true;
  so.tolerance = 1e-5;
  so.max_iterations = 200000;
  so.record_history = false;
  so.yield = true;
  const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
  verify_result(p, r, so.tolerance);
}

TEST(StressAsyncSolve, StraggleredThreadsStillVerifyResidual) {
  const auto p = small_problem(39);
  SharedOptions so;
  so.num_threads = 4;
  so.tolerance = 1e-4;
  so.max_iterations = 200000;
  so.record_history = false;
  // Two stragglers: duty-1 stalls on threads 0 and 2.
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->stragglers.push_back(
      {.actor = 0, .extra_delay_us = 120.0, .duty = 1.0});
  plan->stragglers.push_back(
      {.actor = 2, .extra_delay_us = 60.0, .duty = 1.0});
  so.fault_plan = plan;
  const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
  verify_result(p, r, so.tolerance);
}

TEST(StressAsyncSolve, BatchSolveThreadSweep) {
  // Batched multi-RHS path under TSan pressure: the per-row seqlock of
  // SharedMultiVector publishes whole k-wide rows while neighbors read
  // them racily, and per-column verified stops flip at different times —
  // the interleavings the scalar stress tests cannot reach. Verifies each
  // column's postcondition like verify_result does for scalars.
  const auto p = small_problem(51);
  const index_t n = p.a.num_rows();
  const index_t k = 4;
  MultiVector b(n, k);
  MultiVector x0(n, k);
  for (index_t c = 0; c < k; ++c) {
    // Distinct per-column scalings so columns freeze at different
    // iterations (column convergence is scale-invariant only in exact
    // arithmetic; the offsets also shift x0 relative to the solution).
    const double s = 1.0 + 0.5 * static_cast<double>(c);
    for (index_t i = 0; i < n; ++i) {
      b(i, c) = s * p.b[static_cast<std::size_t>(i)];
      x0(i, c) = p.x0[static_cast<std::size_t>(i)] / s;
    }
  }
  Vector r0(p.b.size());
  for (index_t threads : {1, 2, 4, 8}) {
    for (const bool synchronous : {false, true}) {
      SharedOptions so;
      so.num_threads = threads;
      so.synchronous = synchronous;
      so.tolerance = 1e-5;
      so.max_iterations = synchronous ? 20000 : 200000;
      so.record_history = false;
      so.yield = true;
      const SharedBatchResult r = solve_shared_batch(p.a, b, x0, so);
      for (index_t c = 0; c < k; ++c) {
        SCOPED_TRACE(::testing::Message()
                     << threads << " threads, sync=" << synchronous
                     << ", column " << c << ", AJAC_TEST_SEED="
                     << ajac::testing::test_seed());
        EXPECT_TRUE(r.converged[static_cast<std::size_t>(c)]);
        Vector res(p.b.size());
        p.a.residual(r.x.column(c), b.column(c), res);
        p.a.residual(x0.column(c), b.column(c), r0);
        EXPECT_LE(vec::norm1(res) / vec::norm1(r0), so.tolerance * 1.5);
      }
    }
  }
}

TEST(StressAsyncSolve, BackToBackSolvesReuseThreadPool) {
  // OpenMP reuses pooled worker threads across parallel regions, docking
  // them on futexes between solves. This is the pattern where missing
  // fork/join happens-before edges (see ajac/util/annotate.hpp) show up,
  // so hammer several solves in one process.
  const auto p = small_problem(41);
  for (int round = 0; round < 5; ++round) {
    SharedOptions so;
    so.num_threads = 3;
    so.tolerance = 1e-4;
    so.max_iterations = 200000;
    so.record_history = (round % 2 == 0);
    const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
    verify_result(p, r, so.tolerance);
  }
}

}  // namespace
}  // namespace ajac::runtime
