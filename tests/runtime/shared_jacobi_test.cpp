#include "ajac/runtime/shared_jacobi.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <limits>
#include <memory>
#include <regex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ajac/fault/fault_plan.hpp"
#include "ajac/gen/fd.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/model/trace.hpp"
#include "ajac/solvers/stationary.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/vector_ops.hpp"

namespace ajac::runtime {
namespace {

gen::LinearProblem fd_problem(index_t nx, index_t ny, std::uint64_t seed) {
  return gen::make_problem("fd", gen::fd_laplacian_2d(nx, ny), seed);
}

/// A plan whose only entries are duty-1 stragglers: each (actor, us) pair
/// stalls that thread `us` microseconds before every iteration, the
/// paper's artificially slowed thread (Sec. VII-B).
std::shared_ptr<const fault::FaultPlan> stall_plan(
    std::initializer_list<std::pair<index_t, double>> stalls) {
  auto plan = std::make_shared<fault::FaultPlan>();
  for (const auto& [actor, us] : stalls) {
    plan->stragglers.push_back(
        {.actor = actor, .extra_delay_us = us, .duty = 1.0});
  }
  return plan;
}

TEST(SharedSync, BitwiseEqualsSequentialJacobi) {
  // With barriers the shared-memory run is deterministic Jacobi: same
  // summation order per row, so results are bitwise identical.
  const auto p = fd_problem(10, 10, 3);
  SharedOptions so;
  so.num_threads = 4;
  so.synchronous = true;
  so.tolerance = 0.0;
  so.max_iterations = 40;
  so.record_history = false;
  const SharedResult shared = solve_shared(p.a, p.b, p.x0, so);

  solvers::SolveOptions ro;
  ro.tolerance = 0.0;
  ro.max_iterations = 40;
  const auto ref = solvers::jacobi(p.a, p.b, p.x0, ro);
  EXPECT_DOUBLE_EQ(vec::max_abs_diff(shared.x, ref.x), 0.0);
  for (index_t it : shared.iterations_per_thread) EXPECT_EQ(it, 40);
}

TEST(SharedAsync, ConvergesAndVerifiesResidual) {
  const auto p = fd_problem(12, 12, 5);
  SharedOptions so;
  so.num_threads = 4;
  so.synchronous = false;
  so.tolerance = 1e-6;
  so.max_iterations = 200000;
  so.record_history = false;
  const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.final_rel_residual_1, 1e-6 * 1.5);
  // Cross-check with an independent residual computation.
  Vector res(p.b.size());
  p.a.residual(r.x, p.b, res);
  Vector r0(p.b.size());
  p.a.residual(p.x0, p.b, r0);
  EXPECT_LE(vec::norm1(res) / vec::norm1(r0), 1e-6 * 1.5);
}

TEST(SharedAsync, IterationCapStopsEveryThread) {
  const auto p = fd_problem(8, 8, 7);
  SharedOptions so;
  so.num_threads = 3;
  so.tolerance = 0.0;  // disabled: pure iteration-count mode (Fig. 5(b))
  so.max_iterations = 50;
  so.record_history = false;
  const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
  for (index_t it : r.iterations_per_thread) EXPECT_GE(it, 50);
  EXPECT_GE(r.total_relaxations, 50 * p.a.num_rows());
}

TEST(SharedAsync, SingleThreadEqualsSequential) {
  const auto p = fd_problem(6, 6, 9);
  SharedOptions so;
  so.num_threads = 1;
  so.tolerance = 0.0;
  so.max_iterations = 30;
  so.record_history = false;
  const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
  solvers::SolveOptions ro;
  ro.tolerance = 0.0;
  ro.max_iterations = 30;
  const auto ref = solvers::jacobi(p.a, p.b, p.x0, ro);
  EXPECT_DOUBLE_EQ(vec::max_abs_diff(r.x, ref.x), 0.0);
}

TEST(SharedAsync, HistoryIsTimeOrdered) {
  const auto p = fd_problem(8, 8, 11);
  SharedOptions so;
  so.num_threads = 2;
  so.tolerance = 1e-4;
  so.max_iterations = 100000;
  so.record_history = true;
  const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
  ASSERT_FALSE(r.history.empty());
  for (std::size_t k = 1; k < r.history.size(); ++k) {
    EXPECT_GE(r.history[k].seconds, r.history[k - 1].seconds);
  }
}

TEST(SharedAsync, DelayInjectionSlowsDelayedThread) {
  const auto p = fd_problem(8, 8, 13);
  SharedOptions so;
  so.num_threads = 2;
  so.tolerance = 1e-6;
  so.max_iterations = 2000000;
  so.record_history = false;
  so.fault_plan = stall_plan({{0, 1000.0}});  // thread 0 stalls 1 ms
  const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
  // The solve stops by convergence, far below the iteration cap (the
  // delay and tolerance are sized so not even the free thread can reach
  // it and park): thread 1 runs free while thread 0 crawls, so it relaxes
  // its rows many more times before the verified stop fires.
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.iterations_per_thread[1], r.iterations_per_thread[0]);
}

TEST(SharedAsync, IterationCapIsExactDespiteDelay) {
  // With tolerance 0 every thread must park at the cap rather than run
  // past it while stragglers catch up: the executed (thread, iteration)
  // set is exactly [0, max_iterations) per thread, independent of how
  // lopsided the schedule is.
  const auto p = fd_problem(8, 8, 13);
  SharedOptions so;
  so.num_threads = 2;
  so.tolerance = 0.0;
  so.max_iterations = 25;
  so.record_history = false;
  so.fault_plan = stall_plan({{0, 400.0}});
  const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
  EXPECT_EQ(r.iterations_per_thread[0], 25);
  EXPECT_EQ(r.iterations_per_thread[1], 25);
}

TEST(SharedSync, DelayThrottlesEveryone) {
  // With barriers all threads match the delayed thread's pace exactly:
  // equal iteration counts.
  const auto p = fd_problem(6, 6, 15);
  SharedOptions so;
  so.num_threads = 2;
  so.synchronous = true;
  so.tolerance = 0.0;
  so.max_iterations = 10;
  so.record_history = false;
  so.fault_plan = stall_plan({{0, 300.0}});
  const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
  EXPECT_EQ(r.iterations_per_thread[0], r.iterations_per_thread[1]);
}

TEST(SharedSync, StragglerPlanLeavesResultBitwiseUnchanged) {
  // A stall acts at the top of an iteration and touches no read, and the
  // barriers make every thread wait for it: a synchronous solve with a
  // straggler plan computes exactly the solve without one, on both
  // kernels, and its log holds only the stragglers' window entries.
  const auto p = fd_problem(12, 12, 31);
  for (const KernelKind kernel :
       {KernelKind::kBlocked, KernelKind::kReference}) {
    for (index_t threads = 2; threads <= 4; ++threads) {
      SCOPED_TRACE("kernel " + std::to_string(static_cast<int>(kernel)) +
                   " threads " + std::to_string(threads));
      SharedOptions so;
      so.num_threads = threads;
      so.synchronous = true;
      so.tolerance = 1e-6;
      so.max_iterations = 5000;
      so.record_history = false;
      so.kernel = kernel;
      const SharedResult plain = solve_shared(p.a, p.b, p.x0, so);
      so.fault_plan = stall_plan({{0, 20.0}, {threads - 1, 5.0}});
      const SharedResult stalled = solve_shared(p.a, p.b, p.x0, so);

      ASSERT_TRUE(plain.converged);
      ASSERT_EQ(plain.x.size(), stalled.x.size());
      for (std::size_t i = 0; i < plain.x.size(); ++i) {
        ASSERT_EQ(plain.x[i], stalled.x[i]) << "row " << i;
      }
      EXPECT_EQ(plain.final_rel_residual_1, stalled.final_rel_residual_1);
      EXPECT_EQ(plain.iterations_per_thread, stalled.iterations_per_thread);
      EXPECT_TRUE(plain.fault_events.empty());
      const std::vector<fault::FaultEvent> expected{
          {fault::FaultKind::kStragglerOn, 0, 0, 0, 0},
          {fault::FaultKind::kStragglerOn, threads - 1, 0, 0, 0}};
      EXPECT_EQ(stalled.fault_events, expected);
    }
  }
}

TEST(SharedAsync, TraceRecordsEveryRelaxation) {
  const auto p = fd_problem(5, 4, 17);
  SharedOptions so;
  so.num_threads = 2;
  so.tolerance = 0.0;
  so.max_iterations = 10;
  so.record_trace = true;
  so.record_history = false;
  const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
  ASSERT_TRUE(r.trace.has_value());
  EXPECT_EQ(static_cast<index_t>(r.trace->events().size()),
            r.total_relaxations);
  // Every event's reads are off-diagonal pattern entries of its row.
  for (const auto& e : r.trace->events()) {
    EXPECT_EQ(static_cast<index_t>(e.reads.size()),
              p.a.row_nnz(e.row) - 1);
  }
}

TEST(SharedAsync, TraceIsAnalyzable) {
  const auto p = fd_problem(5, 4, 19);
  SharedOptions so;
  so.num_threads = 4;
  so.tolerance = 0.0;
  so.max_iterations = 15;
  so.record_trace = true;
  so.record_history = false;
  so.yield = true;
  const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
  ASSERT_TRUE(r.trace.has_value());
  const auto analysis = model::analyze_trace(*r.trace);
  EXPECT_EQ(analysis.total_relaxations, r.total_relaxations);
  EXPECT_EQ(analysis.orphaned, 0);
  EXPECT_GT(analysis.fraction, 0.0);
}

TEST(SharedOptions, CustomPartitionIsRespected) {
  const auto p = fd_problem(6, 6, 21);
  SharedOptions so;
  so.num_threads = 2;
  so.tolerance = 0.0;
  so.max_iterations = 5;
  so.record_history = false;
  partition::Partition part;
  part.block_starts = {0, 30, 36};  // deliberately unbalanced
  so.partition = part;
  const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
  EXPECT_GE(r.total_relaxations, 5 * 36);
}

TEST(SharedOptions, Validation) {
  // Synchronous and kSellCS solves accept a plan of stragglers only; one
  // more fault kind of any sort keeps the plan rejected.
  const auto p = fd_problem(4, 4, 23);
  SharedOptions so;
  so.num_threads = 2;
  so.max_iterations = 5;
  so.tolerance = 0.0;
  so.record_history = false;
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->stragglers.push_back({.actor = 0, .extra_delay_us = 1.0});
  plan->stale_reads.push_back({.actor = 1});
  so.fault_plan = plan;

  SharedOptions sync = so;
  sync.synchronous = true;
  EXPECT_THROW(solve_shared(p.a, p.b, p.x0, sync), std::logic_error);
  SharedOptions sell = so;
  sell.kernel = KernelKind::kSellCS;
  EXPECT_THROW(solve_shared(p.a, p.b, p.x0, sell), std::logic_error);

  plan->stale_reads.clear();
  EXPECT_NO_THROW(solve_shared(p.a, p.b, p.x0, sync));
  EXPECT_NO_THROW(solve_shared(p.a, p.b, p.x0, sell));
}

TEST(SharedOptions, NanToleranceIsRejected) {
  // rel <= NaN never holds: without the check the solve would silently
  // run to max_iterations and report converged = false.
  const auto p = fd_problem(4, 4, 23);
  SharedOptions so;
  so.num_threads = 2;
  so.tolerance = std::numeric_limits<double>::quiet_NaN();
  try {
    (void)solve_shared(p.a, p.b, p.x0, so);
    ADD_FAILURE() << "NaN tolerance was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("tolerance is NaN"),
              std::string::npos)
        << e.what();
  }
}

TEST(SharedOptions, MalformedPartitionThrows) {
  // Right part count and row total, but row 0 is owned by nobody: without
  // the check the reference kernels would never write it.
  const auto p = fd_problem(4, 4, 25);
  const index_t n = p.a.num_rows();
  for (const KernelKind kernel :
       {KernelKind::kReference, KernelKind::kBlocked}) {
    SharedOptions so;
    so.num_threads = 2;
    so.kernel = kernel;
    so.partition = partition::Partition{{1, n / 2, n}};
    EXPECT_THROW(solve_shared(p.a, p.b, p.x0, so), std::logic_error);
  }
}

/// The row a rejected solve names (the number after "row " in its
/// message), or -1 when the solve is accepted.
index_t rejected_row(const CsrMatrix& a, const Vector& b, const Vector& x0,
                     const SharedOptions& so) {
  try {
    (void)solve_shared(a, b, x0, so);
  } catch (const std::logic_error& e) {
    const std::regex row_number(R"(\brow (\d+))");
    std::cmatch m;
    EXPECT_TRUE(std::regex_search(e.what(), m, row_number)) << e.what();
    return m.empty() ? -2 : std::stoll(m[1].str());
  }
  return -1;
}

TEST(SharedOptions, ZeroDiagonalIsRejectedOnEveryKernel) {
  // A diagonal stored as 0.0 (with either sign) and a missing diagonal
  // entry are both rejected, by the layout build on kBlocked and kSellCS
  // and by the prologue on kReference, naming the same row. The bad row
  // sits inside the last block at 3 threads (rows 24..35 of 36).
  const auto p = fd_problem(6, 6, 29);
  const index_t n = p.a.num_rows();
  const index_t bad = 30;
  const auto rp = p.a.row_ptr();
  const auto ci = p.a.col_idx();
  const auto va = p.a.values();

  std::vector<CsrMatrix> matrices;
  for (const double zero : {0.0, -0.0}) {
    CsrMatrix a = p.a;
    const auto values = a.mutable_values();
    for (index_t q = rp[bad]; q < rp[bad + 1]; ++q) {
      if (ci[q] == bad) values[static_cast<std::size_t>(q)] = zero;
    }
    matrices.push_back(std::move(a));
  }
  HugePageVector<index_t> row_ptr{0};
  HugePageVector<index_t> cols;
  HugePageVector<double> values;
  for (index_t i = 0; i < n; ++i) {
    for (index_t q = rp[i]; q < rp[i + 1]; ++q) {
      if (i == bad && ci[q] == bad) continue;
      cols.push_back(ci[q]);
      values.push_back(va[q]);
    }
    row_ptr.push_back(static_cast<index_t>(cols.size()));
  }
  matrices.emplace_back(n, n, std::move(row_ptr), std::move(cols),
                        std::move(values));

  for (const CsrMatrix& a : matrices) {
    for (const index_t threads : {1, 3}) {
      for (const KernelKind kernel : {KernelKind::kBlocked,
                                      KernelKind::kSellCS,
                                      KernelKind::kReference}) {
        SharedOptions so;
        so.num_threads = threads;
        so.kernel = kernel;
        so.max_iterations = 5;
        so.record_history = false;
        EXPECT_EQ(rejected_row(a, p.b, p.x0, so), bad)
            << threads << " threads, kernel " << static_cast<int>(kernel);
      }
    }
  }
}

}  // namespace
}  // namespace ajac::runtime
