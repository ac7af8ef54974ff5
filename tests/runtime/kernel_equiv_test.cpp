// Differential kernel-equivalence suite: the partition-aware blocked
// kernels (KernelKind::kBlocked, the default) against the reference
// unsplit path (KernelKind::kReference, the paper's scheme verbatim).
//
// Whenever both kernels read the same vector state — num_threads = 1,
// where the async solve is deterministic lockstep, and synchronous mode,
// where the barrier freezes x for the whole of step 1 — the two must
// produce bitwise identical results: BlockedCsr preserves each row's CSR
// entry order, so per-row accumulation is the same sequence of fused
// multiply-free operations, and the commit evaluates the same expression.
// Comparisons below are on the raw bit patterns, not on values, so a
// -0.0/+0.0 or NaN discrepancy would also fail.

#include "ajac/runtime/shared_jacobi.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "ajac/fault/fault_plan.hpp"
#include "ajac/gen/fd.hpp"
#include "ajac/gen/fe.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/model/trace.hpp"
#include "ajac/obs/metrics.hpp"
#include "ajac/sparse/coo.hpp"
#include "ajac/sparse/csr.hpp"
#include "test_helpers.hpp"

namespace ajac::runtime {
namespace {

struct NamedMatrix {
  const char* name;
  CsrMatrix a;
};

/// The three matrix families the paper's shared-memory experiments use:
/// FD 5-point and 7-point stencils plus the (not weakly diagonally
/// dominant) unstructured FE matrix, at sizes small enough to sweep many
/// configurations.
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

void expect_bitwise_equal(const Vector& blocked, const Vector& reference) {
  ASSERT_EQ(blocked.size(), reference.size());
  for (std::size_t i = 0; i < blocked.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(blocked[i]),
              std::bit_cast<std::uint64_t>(reference[i]))
        << "bit pattern diverged at row " << i << ": " << blocked[i]
        << " vs " << reference[i];
  }
}

/// Run the same problem through both kernels and require identical results
/// down to the bit patterns and the bookkeeping.
void expect_kernels_agree(const gen::LinearProblem& p, SharedOptions opts) {
  opts.kernel = KernelKind::kBlocked;
  const SharedResult blocked = solve_shared(p.a, p.b, p.x0, opts);
  opts.kernel = KernelKind::kReference;
  const SharedResult reference = solve_shared(p.a, p.b, p.x0, opts);

  expect_bitwise_equal(blocked.x, reference.x);
  EXPECT_EQ(blocked.converged, reference.converged);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(blocked.final_rel_residual_1),
            std::bit_cast<std::uint64_t>(reference.final_rel_residual_1));
  EXPECT_EQ(blocked.iterations_per_thread, reference.iterations_per_thread);
  EXPECT_EQ(blocked.total_relaxations, reference.total_relaxations);
  EXPECT_EQ(blocked.polish_sweeps, reference.polish_sweeps);
}

TEST(KernelEquiv, SingleThreadBitwiseIdentical) {
  for (auto& [name, a] : test_matrices()) {
    SCOPED_TRACE(name);
    const auto p =
        gen::make_problem(name, std::move(a), ajac::testing::test_seed(71));
    SharedOptions opts;
    opts.num_threads = 1;
    opts.tolerance = 1e-8;
    opts.max_iterations = 40000;
    opts.record_history = false;
    expect_kernels_agree(p, opts);
  }
}

TEST(KernelEquiv, SingleThreadGaussSeidelBitwiseIdentical) {
  for (auto& [name, a] : test_matrices()) {
    SCOPED_TRACE(name);
    const auto p =
        gen::make_problem(name, std::move(a), ajac::testing::test_seed(73));
    SharedOptions opts;
    opts.num_threads = 1;
    opts.tolerance = 1e-8;
    opts.max_iterations = 40000;
    opts.record_history = false;
    opts.local_gauss_seidel = true;
    expect_kernels_agree(p, opts);
  }
}

TEST(KernelEquiv, SingleThreadFixedIterationsBitwiseIdentical) {
  // Pure iteration-count runs (tolerance 0) avoid any residual-check
  // interaction: the comparison is exactly N lockstep sweeps.
  for (auto& [name, a] : test_matrices()) {
    SCOPED_TRACE(name);
    const auto p =
        gen::make_problem(name, std::move(a), ajac::testing::test_seed(75));
    for (const index_t iters : {1, 2, 5, 17, 64}) {
      SCOPED_TRACE(::testing::Message() << "iterations " << iters);
      SharedOptions opts;
      opts.num_threads = 1;
      opts.tolerance = 0.0;
      opts.max_iterations = iters;
      opts.record_history = false;
      expect_kernels_agree(p, opts);
    }
  }
}

TEST(KernelEquiv, SingleThreadTracedRunsMatchPerRow) {
  // Traced mode: solutions must stay bitwise identical and every row's
  // sequence of (source_row, version) reads must match. The blocked path
  // interleaves rows interior-first, so cross-row event order is allowed
  // to differ (the trace contract only orders events of the same row).
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(9, 9),
                                   ajac::testing::test_seed(77));
  SharedOptions opts;
  opts.num_threads = 1;
  opts.tolerance = 0.0;
  opts.max_iterations = 12;
  opts.record_history = false;
  opts.record_trace = true;

  opts.kernel = KernelKind::kBlocked;
  const SharedResult blocked = solve_shared(p.a, p.b, p.x0, opts);
  opts.kernel = KernelKind::kReference;
  const SharedResult reference = solve_shared(p.a, p.b, p.x0, opts);

  expect_bitwise_equal(blocked.x, reference.x);
  ASSERT_TRUE(blocked.trace.has_value());
  ASSERT_TRUE(reference.trace.has_value());
  ASSERT_EQ(blocked.trace->events().size(), reference.trace->events().size());

  using PerRow = std::map<index_t, std::vector<model::RelaxationRead>>;
  const auto by_row = [](const model::RelaxationTrace& t) {
    PerRow rows;
    for (const auto& e : t.events()) {
      auto& seq = rows[e.row];
      seq.insert(seq.end(), e.reads.begin(), e.reads.end());
    }
    return rows;
  };
  const PerRow blocked_rows = by_row(*blocked.trace);
  const PerRow reference_rows = by_row(*reference.trace);
  ASSERT_EQ(blocked_rows.size(), reference_rows.size());
  for (const auto& [row, reads] : reference_rows) {
    const auto it = blocked_rows.find(row);
    ASSERT_NE(it, blocked_rows.end()) << "row " << row << " missing";
    ASSERT_EQ(it->second.size(), reads.size()) << "row " << row;
    for (std::size_t k = 0; k < reads.size(); ++k) {
      EXPECT_EQ(it->second[k].source_row, reads[k].source_row)
          << "row " << row << " read " << k;
      EXPECT_EQ(it->second[k].version, reads[k].version)
          << "row " << row << " read " << k;
    }
  }
}

TEST(KernelEquiv, MultiThreadSynchronousZeroUlp) {
  // With barriers, x is frozen during step 1 for every thread, so blocked
  // and reference kernels read identical values at every iteration — the
  // whole run must agree to 0 ULP regardless of thread count.
  for (auto& [name, a] : test_matrices()) {
    SCOPED_TRACE(name);
    const auto p =
        gen::make_problem(name, std::move(a), ajac::testing::test_seed(79));
    for (const index_t threads : {2, 3, 4}) {
      for (const index_t iters : {1, 7, 40}) {
        SCOPED_TRACE(::testing::Message()
                     << threads << " threads, " << iters << " iterations");
        SharedOptions opts;
        opts.num_threads = threads;
        opts.synchronous = true;
        opts.tolerance = 0.0;
        opts.max_iterations = iters;
        opts.record_history = false;
        expect_kernels_agree(p, opts);
      }
    }
  }
}

TEST(KernelEquiv, MoreThreadsThanRowsLeavesEmptyBlocks) {
  // P > n: FD 2x2 has 4 rows, so at 6 threads the contiguous partition
  // gives two threads no rows — empty blocks with no runs and empty
  // mirrors. Those threads still pass every barrier and publish a zero
  // partial, so the synchronous runs must stay 0 ULP from the reference
  // and the asynchronous run must still converge.
  const auto p = gen::make_problem("fd2x2", gen::fd_laplacian_2d(2, 2),
                                   ajac::testing::test_seed(81));
  for (const index_t iters : {1, 7, 40}) {
    SCOPED_TRACE(::testing::Message() << iters << " iterations");
    SharedOptions opts;
    opts.num_threads = 6;
    opts.synchronous = true;
    opts.tolerance = 0.0;
    opts.max_iterations = iters;
    opts.record_history = false;
    expect_kernels_agree(p, opts);
  }
  SharedOptions opts;
  opts.num_threads = 6;
  opts.tolerance = 1e-8;
  opts.max_iterations = 100000;
  opts.record_history = false;
  const SharedResult async = solve_shared(p.a, p.b, p.x0, opts);
  EXPECT_TRUE(async.converged);
  EXPECT_LE(async.final_rel_residual_1, 1e-8);
}

TEST(KernelEquiv, SingleThreadFaultPathsBitwiseIdentical) {
  // Bit flips and a crash-with-state-reset at one thread: decisions are
  // pure FaultClock hashes of logical coordinates, and the blocked layout
  // preserves entry indexing within rows, so the same entries get the same
  // corruption and the mirror resyncs after the reset — runs must match
  // bitwise including the injected-event logs.
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(10, 10),
                                   ajac::testing::test_seed(81));
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->seed = ajac::testing::test_seed(83);
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

  opts.kernel = KernelKind::kBlocked;
  const SharedResult blocked = solve_shared(p.a, p.b, p.x0, opts);
  opts.kernel = KernelKind::kReference;
  const SharedResult reference = solve_shared(p.a, p.b, p.x0, opts);

  expect_bitwise_equal(blocked.x, reference.x);
  ASSERT_EQ(blocked.fault_events.size(), reference.fault_events.size());
  for (std::size_t k = 0; k < blocked.fault_events.size(); ++k) {
    EXPECT_EQ(blocked.fault_events[k], reference.fault_events[k])
        << "fault log diverged at event " << k;
  }
  EXPECT_FALSE(blocked.fault_events.empty());
}

TEST(KernelEquiv, MetricsRegistryDoesNotPerturbBlockedResults) {
  // Same contract the reference path already guarantees: attaching a
  // registry must not change a single bit of the blocked solve.
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(10, 10),
                                   ajac::testing::test_seed(85));
  SharedOptions opts;
  opts.num_threads = 1;
  opts.tolerance = 1e-8;
  opts.max_iterations = 40000;
  opts.record_history = false;
  opts.kernel = KernelKind::kBlocked;
  const SharedResult plain = solve_shared(p.a, p.b, p.x0, opts);

  obs::MetricsRegistry reg;
  opts.metrics = &reg;
  const SharedResult instrumented = solve_shared(p.a, p.b, p.x0, opts);

  expect_bitwise_equal(instrumented.x, plain.x);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const auto local =
      snap.totals[static_cast<std::size_t>(obs::Counter::kLocalReads)];
  const auto ghost =
      snap.totals[static_cast<std::size_t>(obs::Counter::kGhostReads)];
  // One thread owns every row: all entries resolve from the mirror.
  EXPECT_GT(local, 0U);
  EXPECT_EQ(ghost, 0U);
  EXPECT_EQ(local + ghost,
            static_cast<std::uint64_t>(p.a.num_nonzeros()) *
                snap.totals[static_cast<std::size_t>(obs::Counter::kIterations)]);
}

/// The pattern-run contract (BlockedCsr::PatternRun): stencil rows swept
/// by the fixed-width loops accumulate in CSR entry order and sum the
/// partial norm in ascending row order, so the blocked solve stays bitwise
/// the reference one. Checked on a converged single-thread run (which also
/// sums verification shares through the pattern loops) and on 4-thread
/// synchronous runs, fixed-count and to tolerance, at 0 ULP.
void expect_pattern_runs_agree(const gen::LinearProblem& p) {
  SharedOptions opts;
  opts.num_threads = 1;
  opts.tolerance = 1e-8;
  opts.max_iterations = 40000;
  opts.record_history = false;
  {
    SCOPED_TRACE("1 thread, asynchronous, to tolerance");
    expect_kernels_agree(p, opts);
  }
  opts.num_threads = 4;
  opts.synchronous = true;
  {
    SCOPED_TRACE("4 threads, synchronous, to tolerance");
    expect_kernels_agree(p, opts);
  }
  opts.tolerance = 0.0;
  opts.max_iterations = 40;
  {
    SCOPED_TRACE("4 threads, synchronous, 40 iterations");
    expect_kernels_agree(p, opts);
  }
}

void expect_pattern_runs_agree(const char* name, CsrMatrix a,
                               std::uint64_t salt) {
  expect_pattern_runs_agree(
      gen::make_problem(name, std::move(a), ajac::testing::test_seed(salt)));
}

TEST(KernelEquiv, PatternRunsFd9PointBitwiseIdentical) {
  // Width 9 in the 9-point interior, 6 on the first and last lines.
  expect_pattern_runs_agree("fd9pt_12x12", gen::fd_laplacian_2d_9pt(12, 12),
                            111);
}

TEST(KernelEquiv, PatternRunsAnisotropicBitwiseIdentical) {
  expect_pattern_runs_agree("fd_aniso_12x12",
                            gen::fd_anisotropic_2d(12, 12, 0.05), 113);
}

TEST(KernelEquiv, PatternRunsVarcoefBitwiseIdentical) {
  // Same offsets on every interior row, values that differ per row: the
  // run's value slice must advance row by row.
  expect_pattern_runs_agree(
      "fd_varcoef_12x12",
      gen::fd_varcoef_2d(12, 12,
                         [](double x, double y) { return 1.0 + 4.0 * x * y; }),
      115);
}

TEST(KernelEquiv, PatternRunsFd7Point3dBitwiseIdentical) {
  // 6x6x12 at 4 threads: three 36-row planes a block, the middle one
  // interior (width 7 inside it).
  expect_pattern_runs_agree("fd7pt_6x6x12", gen::fd_laplacian_3d(6, 6, 12),
                            117);
}

TEST(KernelEquiv, PatternRunBrokenMidBlockBitwiseIdentical) {
  // FD 5-point 12x12 with one extra entry in row (6, 7), the middle line
  // of block 2 at 4 threads: the line's run splits around that row, which
  // falls back to col_code, and so does nothing else.
  const CsrMatrix fd = gen::fd_laplacian_2d(12, 12);
  CooBuilder coo(fd.num_rows(), fd.num_cols());
  for (index_t i = 0; i < fd.num_rows(); ++i) {
    const auto cols = fd.row_cols(i);
    const auto vals = fd.row_values(i);
    for (std::size_t q = 0; q < cols.size(); ++q) coo.add(i, cols[q], vals[q]);
  }
  const index_t row = 7 * 12 + 6;
  coo.add(row, row + 2, -0.5);
  coo.add(row, row, 0.5);  // keeps the row diagonally dominant
  expect_pattern_runs_agree("fd5pt_12x12_extra", coo.to_csr(), 119);
}

// Uniform pattern runs (BlockedCsr::PatternRun::uniform): constant-
// coefficient stencil rows swept from register-held values and 1 / a_ii
// must stay bitwise the reference solve, and a run whose values differ
// by one bit pattern anywhere must keep to the per-row loads.

TEST(KernelEquiv, UniformPatternRunsScaledFd5PointBitwiseIdentical) {
  expect_pattern_runs_agree("fd5pt_12x12", gen::fd_laplacian_2d(12, 12), 121);
}

TEST(KernelEquiv, UniformPatternRunsUnscaledFd5PointBitwiseIdentical) {
  // Diagonal 4, off-diagonals -1: a uniform 1 / a_ii of 0.25, not 1.
  auto p = gen::make_problem("fd5pt_12x12_unscaled",
                             gen::fd_laplacian_2d(12, 12),
                             ajac::testing::test_seed(123));
  p.a = gen::fd_laplacian_2d(12, 12);
  expect_pattern_runs_agree(p);
}

TEST(KernelEquiv, UniformPatternRunsAnisotropicBitwiseIdentical) {
  // Two distinct off-diagonal values, the same on every row.
  expect_pattern_runs_agree("fd_aniso_16x12",
                            gen::fd_anisotropic_2d(16, 12, 0.01), 125);
}

TEST(KernelEquiv, UniformRunBrokenByOneUlpBitwiseIdentical) {
  // The west entry of grid point (6, 7), in the middle line of block 2 at
  // 4 threads, moved up by one ULP: that line's run is not uniform.
  auto p = gen::make_problem("fd5pt_12x12_ulp", gen::fd_laplacian_2d(12, 12),
                             ajac::testing::test_seed(127));
  const index_t row = 7 * 12 + 6;
  double& west = ajac::testing::stored_entry(p.a, row, row - 1);
  west = std::nextafter(west, 1.0);
  expect_pattern_runs_agree(p);
}

TEST(KernelEquiv, UniformRunWithSignedZeroBitwiseIdentical) {
  // Line 7's run rows store their east entry as +0.0, except point (6, 7)
  // which stores -0.0: equal under ==, so only the bitwise test keeps the
  // run off the uniform path.
  auto p = gen::make_problem("fd5pt_12x12_signed_zero",
                             gen::fd_laplacian_2d(12, 12),
                             ajac::testing::test_seed(129));
  ajac::testing::store_signed_zeros(p.a, 7 * 12 + 1, 7 * 12 + 11,
                                        7 * 12 + 6);
  expect_pattern_runs_agree(p);
}

/// Run the same problem through kSellCS and kBlocked and require bitwise
/// agreement — the contract of the bandwidth-engineered data plane with
/// fp64 ghosts whenever the reads see the same values (one thread, or
/// synchronous mode): the SELL slice accumulation consumes each row's
/// entries in CSR order and the once-per-iteration ghost refresh reads
/// exactly what the per-entry blocked reads would.
void expect_sellcs_matches_blocked(const gen::LinearProblem& p,
                                   SharedOptions opts) {
  opts.kernel = KernelKind::kSellCS;
  const SharedResult sell = solve_shared(p.a, p.b, p.x0, opts);
  opts.kernel = KernelKind::kBlocked;
  const SharedResult blocked = solve_shared(p.a, p.b, p.x0, opts);

  expect_bitwise_equal(sell.x, blocked.x);
  EXPECT_EQ(sell.converged, blocked.converged);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sell.final_rel_residual_1),
            std::bit_cast<std::uint64_t>(blocked.final_rel_residual_1));
  EXPECT_EQ(sell.iterations_per_thread, blocked.iterations_per_thread);
  EXPECT_EQ(sell.total_relaxations, blocked.total_relaxations);
  EXPECT_EQ(sell.polish_sweeps, blocked.polish_sweeps);
}

TEST(KernelEquiv, SellCSSingleThreadBitwiseIdentical) {
  for (auto& [name, a] : test_matrices()) {
    SCOPED_TRACE(name);
    const auto p =
        gen::make_problem(name, std::move(a), ajac::testing::test_seed(87));
    SharedOptions opts;
    opts.num_threads = 1;
    opts.tolerance = 1e-8;
    opts.max_iterations = 40000;
    opts.record_history = false;
    expect_sellcs_matches_blocked(p, opts);
  }
}

TEST(KernelEquiv, SellCSSingleThreadFixedIterationsBitwiseIdentical) {
  for (auto& [name, a] : test_matrices()) {
    SCOPED_TRACE(name);
    const auto p =
        gen::make_problem(name, std::move(a), ajac::testing::test_seed(89));
    for (const index_t iters : {1, 2, 5, 17, 64}) {
      SCOPED_TRACE(::testing::Message() << "iterations " << iters);
      SharedOptions opts;
      opts.num_threads = 1;
      opts.tolerance = 0.0;
      opts.max_iterations = iters;
      opts.record_history = false;
      expect_sellcs_matches_blocked(p, opts);
    }
  }
}

TEST(KernelEquiv, SellCSMultiThreadSynchronousZeroUlp) {
  // With barriers the commits of iteration k all complete before any
  // thread's iteration k+1 ghost refresh, so the dense buffer holds
  // exactly the frozen x the blocked per-entry reads would see — the runs
  // must agree to 0 ULP at any thread count, SELL row reordering included.
  for (auto& [name, a] : test_matrices()) {
    SCOPED_TRACE(name);
    const auto p =
        gen::make_problem(name, std::move(a), ajac::testing::test_seed(91));
    for (const index_t threads : {2, 3, 4}) {
      for (const index_t iters : {1, 7, 40}) {
        SCOPED_TRACE(::testing::Message()
                     << threads << " threads, " << iters << " iterations");
        SharedOptions opts;
        opts.num_threads = threads;
        opts.synchronous = true;
        opts.tolerance = 0.0;
        opts.max_iterations = iters;
        opts.record_history = false;
        expect_sellcs_matches_blocked(p, opts);
      }
    }
  }
}

TEST(KernelEquiv, SellCSNnzPartitionSynchronousZeroUlp) {
  // Same contract on nnz-balanced blocks (the facade's default for the
  // partition-aware kernels): unequal block sizes change which rows are
  // interior vs boundary, not any row's accumulation order.
  for (auto& [name, a] : test_matrices()) {
    SCOPED_TRACE(name);
    const auto p =
        gen::make_problem(name, std::move(a), ajac::testing::test_seed(93));
    SharedOptions opts;
    opts.num_threads = 3;
    opts.synchronous = true;
    opts.tolerance = 0.0;
    opts.max_iterations = 25;
    opts.record_history = false;
    opts.partition = partition::nnz_balanced_partition(p.a, opts.num_threads);
    expect_sellcs_matches_blocked(p, opts);
  }
}

TEST(KernelEquiv, SellCSMetricsCountGhostRefreshes) {
  // The registry must not perturb the solve, and the kSellCS-specific
  // counter must tally exactly one buffer refresh per local iteration.
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(10, 10),
                                   ajac::testing::test_seed(101));
  SharedOptions opts;
  opts.num_threads = 1;
  opts.tolerance = 0.0;
  opts.max_iterations = 30;
  opts.record_history = false;
  opts.kernel = KernelKind::kSellCS;
  const SharedResult plain = solve_shared(p.a, p.b, p.x0, opts);

  obs::MetricsRegistry reg;
  opts.metrics = &reg;
  const SharedResult instrumented = solve_shared(p.a, p.b, p.x0, opts);

  expect_bitwise_equal(instrumented.x, plain.x);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(
      snap.totals[static_cast<std::size_t>(obs::Counter::kGhostRefreshes)],
      snap.totals[static_cast<std::size_t>(obs::Counter::kIterations)]);
}

}  // namespace
}  // namespace ajac::runtime
