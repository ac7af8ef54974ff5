// Differential batch-equivalence suite: solve_shared_batch against k
// independent solve_shared runs.
//
// The batch path is a loop that runs solve_shared on each column with the
// same options, and it promises per-column bitwise equivalence whenever
// the scalar path itself is deterministic: synchronous mode at any thread
// count (barriers freeze x during the residual step) and asynchronous
// mode at one thread (deterministic lockstep). Each column of the batch
// must then reproduce the corresponding single-RHS run exactly, including
// its stop iteration, polish sweeps, relaxation count and fault log.
// Comparisons are on raw bit patterns, so a -0.0/+0.0 discrepancy would
// also fail.

#include "ajac/runtime/shared_jacobi.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "ajac/fault/fault_plan.hpp"
#include "ajac/gen/fd.hpp"
#include "ajac/gen/fe.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/obs/metrics.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/multi_vector.hpp"
#include "ajac/util/rng.hpp"
#include "test_helpers.hpp"

namespace ajac::runtime {
namespace {

struct NamedMatrix {
  const char* name;
  CsrMatrix a;
};

/// Same families as kernel_equiv_test.cpp: FD 5-point, FD 7-point, and the
/// unstructured (not W.D.D.) FE matrix.
std::vector<NamedMatrix> test_matrices() {
  std::vector<NamedMatrix> out;
  out.push_back({"fd5pt_12x12", gen::fd_laplacian_2d(12, 12)});
  out.push_back({"fd7pt_5x5x5", gen::fd_laplacian_3d(5, 5, 5)});
  gen::FeMeshOptions fe;
  fe.nx = 8;
  fe.ny = 8;
  out.push_back({"fe_8x8", gen::fe_laplacian_2d(fe)});
  return out;
}

/// k columns of genuinely distinct data so per-column freezing is
/// exercised: every column draws its own b and x0 from the seed stream.
struct BatchProblem {
  CsrMatrix a;
  MultiVector b;
  MultiVector x0;
};

BatchProblem make_batch_problem(CsrMatrix a, index_t k, std::uint64_t seed) {
  const index_t n = a.num_rows();
  BatchProblem p{std::move(a), MultiVector(n, k), MultiVector(n, k)};
  Rng rng(seed);
  for (index_t c = 0; c < k; ++c) {
    for (index_t i = 0; i < n; ++i) p.b(i, c) = rng.uniform(-1.0, 1.0);
    for (index_t i = 0; i < n; ++i) p.x0(i, c) = rng.uniform(-1.0, 1.0);
  }
  return p;
}

Vector column_of(const MultiVector& m, index_t c) {
  Vector out(static_cast<std::size_t>(m.num_rows()));
  for (index_t i = 0; i < m.num_rows(); ++i) {
    out[static_cast<std::size_t>(i)] = m(i, c);
  }
  return out;
}

void expect_column_bitwise(const MultiVector& batch, index_t c,
                           const Vector& scalar) {
  ASSERT_EQ(static_cast<std::size_t>(batch.num_rows()), scalar.size());
  for (index_t i = 0; i < batch.num_rows(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(batch(i, c)),
              std::bit_cast<std::uint64_t>(scalar[static_cast<std::size_t>(i)]))
        << "column " << c << " diverged at row " << i << ": " << batch(i, c)
        << " vs " << scalar[static_cast<std::size_t>(i)];
  }
}

/// Run the batch and the k single-RHS solves under the same options and
/// require bitwise-identical columns plus matching bookkeeping.
void expect_batch_matches_singles(const BatchProblem& p, SharedOptions opts) {
  const SharedBatchResult batch =
      solve_shared_batch(p.a, p.b, p.x0, opts);
  const index_t k = p.b.num_cols();
  ASSERT_EQ(batch.x.num_cols(), k);
  for (index_t c = 0; c < k; ++c) {
    SCOPED_TRACE(::testing::Message() << "column " << c);
    const SharedResult single =
        solve_shared(p.a, column_of(p.b, c), column_of(p.x0, c), opts);
    expect_column_bitwise(batch.x, c, single.x);
    EXPECT_EQ(batch.converged[static_cast<std::size_t>(c)], single.converged);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  batch.final_rel_residual_1[static_cast<std::size_t>(c)]),
              std::bit_cast<std::uint64_t>(single.final_rel_residual_1));
    EXPECT_EQ(batch.polish_sweeps[static_cast<std::size_t>(c)],
              single.polish_sweeps);
  }
}

TEST(BatchEquiv, SynchronousMatchesIndependentSolves) {
  for (auto& [name, a] : test_matrices()) {
    SCOPED_TRACE(name);
    for (const auto kernel : {KernelKind::kBlocked, KernelKind::kReference}) {
      SCOPED_TRACE(kernel == KernelKind::kBlocked ? "blocked" : "reference");
      const BatchProblem p =
          make_batch_problem(CsrMatrix(a), 4, ajac::testing::test_seed(91));
      SharedOptions opts;
      opts.num_threads = 3;
      opts.synchronous = true;
      opts.tolerance = 1e-8;
      opts.max_iterations = 40000;
      opts.record_history = false;
      opts.kernel = kernel;
      expect_batch_matches_singles(p, opts);
    }
  }
}

TEST(BatchEquiv, SingleThreadAsyncZeroUlp) {
  for (auto& [name, a] : test_matrices()) {
    SCOPED_TRACE(name);
    for (const auto kernel : {KernelKind::kBlocked, KernelKind::kReference}) {
      SCOPED_TRACE(kernel == KernelKind::kBlocked ? "blocked" : "reference");
      const BatchProblem p =
          make_batch_problem(CsrMatrix(a), 3, ajac::testing::test_seed(93));
      SharedOptions opts;
      opts.num_threads = 1;
      opts.tolerance = 1e-8;
      opts.max_iterations = 40000;
      opts.record_history = false;
      opts.kernel = kernel;
      expect_batch_matches_singles(p, opts);
    }
  }
}

TEST(BatchEquiv, FixedIterationRunsMatch) {
  // Pure iteration-count runs (tolerance 0): no column stops early, so
  // every column runs exactly N sweeps.
  const CsrMatrix a = gen::fd_laplacian_2d(9, 9);
  for (const index_t iters : {1, 2, 5, 17, 64}) {
    SCOPED_TRACE(::testing::Message() << "iterations " << iters);
    const BatchProblem p =
        make_batch_problem(CsrMatrix(a), 5, ajac::testing::test_seed(95));
    SharedOptions opts;
    opts.num_threads = 1;
    opts.tolerance = 0.0;
    opts.max_iterations = iters;
    opts.record_history = false;
    expect_batch_matches_singles(p, opts);
  }
}

TEST(BatchEquiv, ColumnsFreezeAtDifferentIterations) {
  // Column 0 starts at the zero solution of b = 0 (residual 0, so its
  // verified stop fires on the first check) while the other columns carry
  // random data and keep iterating. A column that stops early must not
  // move a single bit of the columns that keep iterating.
  const CsrMatrix a = gen::fd_laplacian_2d(12, 12);
  BatchProblem p = make_batch_problem(CsrMatrix(a), 3,
                                      ajac::testing::test_seed(97));
  for (index_t i = 0; i < a.num_rows(); ++i) {
    p.b(i, 0) = 0.0;
    p.x0(i, 0) = 0.0;
  }
  SharedOptions opts;
  opts.num_threads = 2;
  opts.synchronous = true;
  opts.tolerance = 1e-8;
  opts.max_iterations = 40000;
  opts.record_history = false;

  const SharedBatchResult batch = solve_shared_batch(p.a, p.b, p.x0, opts);
  EXPECT_LT(batch.stop_iteration[0], batch.stop_iteration[1]);
  EXPECT_LT(batch.relaxations_per_column[0],
            batch.relaxations_per_column[1]);
  expect_batch_matches_singles(p, opts);
}

TEST(BatchEquiv, MetricsRegistryDoesNotPerturbResults) {
  const BatchProblem p = make_batch_problem(gen::fd_laplacian_2d(10, 10), 4,
                                            ajac::testing::test_seed(99));
  SharedOptions opts;
  opts.num_threads = 2;
  opts.synchronous = true;
  opts.tolerance = 1e-8;
  opts.max_iterations = 40000;
  opts.record_history = false;
  const SharedBatchResult plain = solve_shared_batch(p.a, p.b, p.x0, opts);

  obs::MetricsRegistry reg;
  opts.metrics = &reg;
  const SharedBatchResult instrumented =
      solve_shared_batch(p.a, p.b, p.x0, opts);

  for (index_t c = 0; c < p.b.num_cols(); ++c) {
    expect_column_bitwise(instrumented.x, c, column_of(plain.x, c));
  }
}

TEST(BatchEquiv, MalformedPartitionThrows) {
  // Right part count and row total, but row 0 is owned by nobody.
  const BatchProblem p = make_batch_problem(gen::fd_laplacian_2d(4, 4), 2,
                                            ajac::testing::test_seed(101));
  const index_t n = p.a.num_rows();
  SharedOptions opts;
  opts.num_threads = 2;
  opts.kernel = KernelKind::kReference;
  opts.record_history = false;
  opts.partition = partition::Partition{{1, n / 2, n}};
  EXPECT_THROW(solve_shared_batch(p.a, p.b, p.x0, opts), std::logic_error);
}

TEST(BatchEquiv, SingleColumnFaultRunMatchesScalar) {
  // k = 1 batch under a fault plan must reproduce the scalar fault run
  // bitwise, including the injected-event log: both runtimes apply one
  // fault::ActorFaults schedule per thread, which hashes the same (seed,
  // thread, iteration, row) FaultClock coordinates.
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(10, 10),
                                   ajac::testing::test_seed(101));
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->seed = ajac::testing::test_seed(103);
  plan->bit_flips.push_back({.actor = -1, .probability = 0.02, .bit = 12});
  plan->crashes.push_back({.actor = 0,
                           .crash_iteration = 6,
                           .dead_seconds = 1e-6,
                           .reset_state_on_recovery = true});
  plan->stale_reads.push_back({.actor = -1, .period = 8, .duty = 0.5});

  SharedOptions opts;
  opts.num_threads = 1;
  opts.tolerance = 0.0;
  opts.max_iterations = 60;
  opts.record_history = false;
  opts.fault_plan = plan;

  const SharedResult scalar = solve_shared(p.a, p.b, p.x0, opts);

  const index_t n = p.a.num_rows();
  MultiVector b(n, 1);
  MultiVector x0(n, 1);
  b.set_column(0, p.b);
  x0.set_column(0, p.x0);
  const SharedBatchResult batch = solve_shared_batch(p.a, b, x0, opts);

  expect_column_bitwise(batch.x, 0, scalar.x);
  ASSERT_EQ(batch.fault_events.size(), scalar.fault_events.size());
  for (std::size_t e = 0; e < batch.fault_events.size(); ++e) {
    EXPECT_EQ(batch.fault_events[e], scalar.fault_events[e])
        << "fault log diverged at event " << e;
  }
  EXPECT_FALSE(batch.fault_events.empty());
}

TEST(BatchEquiv, FaultRunsAreDeterministic) {
  // Multi-column fault runs: two executions of the same plan must agree
  // bitwise and log the identical events — each column's solve replays
  // the plan's decisions from its own first iteration.
  const BatchProblem p = make_batch_problem(gen::fd_laplacian_2d(8, 8), 4,
                                            ajac::testing::test_seed(105));
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->seed = ajac::testing::test_seed(107);
  plan->bit_flips.push_back({.actor = -1, .probability = 0.05, .bit = 20});
  plan->stale_reads.push_back({.actor = -1, .period = 6, .duty = 0.5});

  SharedOptions opts;
  opts.num_threads = 1;
  opts.tolerance = 0.0;
  opts.max_iterations = 40;
  opts.record_history = false;
  opts.fault_plan = plan;

  const SharedBatchResult first = solve_shared_batch(p.a, p.b, p.x0, opts);
  const SharedBatchResult second = solve_shared_batch(p.a, p.b, p.x0, opts);
  for (index_t c = 0; c < p.b.num_cols(); ++c) {
    expect_column_bitwise(first.x, c, column_of(second.x, c));
  }
  ASSERT_EQ(first.fault_events.size(), second.fault_events.size());
  for (std::size_t e = 0; e < first.fault_events.size(); ++e) {
    EXPECT_EQ(first.fault_events[e], second.fault_events[e]);
  }
  EXPECT_FALSE(first.fault_events.empty());
}

TEST(BatchEquiv, AsyncMultiThreadConvergesPerColumn) {
  // The racy regime has no bitwise oracle; assert the solve contract
  // instead: every column's final serial residual meets the tolerance.
  const BatchProblem p = make_batch_problem(gen::fd_laplacian_2d(16, 16), 4,
                                            ajac::testing::test_seed(109));
  SharedOptions opts;
  opts.num_threads = 4;
  opts.tolerance = 1e-8;
  opts.max_iterations = 40000;
  opts.record_history = false;
  opts.yield = true;
  const SharedBatchResult r = solve_shared_batch(p.a, p.b, p.x0, opts);
  for (index_t c = 0; c < p.b.num_cols(); ++c) {
    EXPECT_TRUE(r.converged[static_cast<std::size_t>(c)]) << "column " << c;
    EXPECT_LE(r.final_rel_residual_1[static_cast<std::size_t>(c)], 1e-8)
        << "column " << c;
  }
}

}  // namespace
}  // namespace ajac::runtime
