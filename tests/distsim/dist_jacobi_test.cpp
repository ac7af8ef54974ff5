#include "ajac/distsim/dist_jacobi.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "ajac/gen/fd.hpp"
#include "ajac/gen/fe.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/model/trace.hpp"
#include "ajac/partition/partition.hpp"
#include "ajac/solvers/stationary.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/vector_ops.hpp"

namespace ajac::distsim {
namespace {

gen::LinearProblem fd_problem(index_t nx, index_t ny, std::uint64_t seed) {
  return gen::make_problem("fd", gen::fd_laplacian_2d(nx, ny), seed);
}

class DistSyncEquivalence : public ::testing::TestWithParam<index_t> {};

TEST_P(DistSyncEquivalence, SyncModeIsBitwiseSequentialJacobi) {
  // Whatever the partition, BSP supersteps with full ghost exchange give
  // exactly the sequential Jacobi iterate sequence.
  const index_t procs = GetParam();
  const auto p = fd_problem(8, 9, 3);
  DistOptions o;
  o.num_processes = procs;
  o.synchronous = true;
  o.max_iterations = 30;
  const auto part = partition::contiguous_partition(p.a.num_rows(), procs);
  const DistResult r = solve_distributed(p.a, p.b, p.x0, part, o);

  solvers::SolveOptions ro;
  ro.tolerance = 0.0;
  ro.max_iterations = 30;
  const auto ref = solvers::jacobi(p.a, p.b, p.x0, ro);
  EXPECT_DOUBLE_EQ(vec::max_abs_diff(r.x, ref.x), 0.0);
}

INSTANTIATE_TEST_SUITE_P(ProcessCounts, DistSyncEquivalence,
                         ::testing::Values(1, 2, 3, 8, 24, 72));

TEST(DistAsync, ConvergesOnWddProblem) {
  const auto p = fd_problem(12, 12, 5);
  DistOptions o;
  o.num_processes = 8;
  o.max_iterations = 20000;
  o.tolerance = 1e-6;
  const auto part = partition::contiguous_partition(p.a.num_rows(), 8);
  const DistResult r = solve_distributed(p.a, p.b, p.x0, part, o);
  EXPECT_TRUE(r.reached_tolerance);
  // Independent residual verification.
  Vector res(p.b.size());
  p.a.residual(r.x, p.b, res);
  Vector r0(p.b.size());
  p.a.residual(p.x0, p.b, r0);
  EXPECT_LE(vec::norm1(res) / vec::norm1(r0), 1e-5);
}

TEST(DistAsync, SingleProcessMatchesSequential) {
  const auto p = fd_problem(6, 6, 7);
  DistOptions o;
  o.num_processes = 1;
  o.max_iterations = 25;
  const DistResult r = solve_distributed(
      p.a, p.b, p.x0, partition::contiguous_partition(p.a.num_rows(), 1), o);
  solvers::SolveOptions ro;
  ro.tolerance = 0.0;
  ro.max_iterations = 25;
  const auto ref = solvers::jacobi(p.a, p.b, p.x0, ro);
  EXPECT_DOUBLE_EQ(vec::max_abs_diff(r.x, ref.x), 0.0);
}

TEST(DistAsync, DeterministicForFixedSeed) {
  const auto p = fd_problem(8, 8, 9);
  DistOptions o;
  o.num_processes = 4;
  o.max_iterations = 60;
  o.seed = 1234;
  const auto part = partition::contiguous_partition(p.a.num_rows(), 4);
  const DistResult r1 = solve_distributed(p.a, p.b, p.x0, part, o);
  const DistResult r2 = solve_distributed(p.a, p.b, p.x0, part, o);
  EXPECT_DOUBLE_EQ(vec::max_abs_diff(r1.x, r2.x), 0.0);
  EXPECT_EQ(r1.total_messages, r2.total_messages);
  EXPECT_DOUBLE_EQ(r1.sim_seconds, r2.sim_seconds);
}

TEST(DistAsync, EveryProcessCompletesItsIterations) {
  const auto p = fd_problem(10, 10, 11);
  DistOptions o;
  o.num_processes = 5;
  o.max_iterations = 40;
  const DistResult r = solve_distributed(
      p.a, p.b, p.x0, partition::contiguous_partition(p.a.num_rows(), 5), o);
  for (index_t it : r.iterations_per_process) EXPECT_EQ(it, 40);
  EXPECT_EQ(r.total_relaxations, 40 * p.a.num_rows());
}

TEST(DistAsync, HistoryMonotoneInTimeAndRelaxations) {
  const auto p = fd_problem(10, 10, 13);
  DistOptions o;
  o.num_processes = 4;
  o.max_iterations = 100;
  const DistResult r = solve_distributed(
      p.a, p.b, p.x0, partition::contiguous_partition(p.a.num_rows(), 4), o);
  ASSERT_GE(r.history.size(), 2u);
  for (std::size_t k = 1; k < r.history.size(); ++k) {
    EXPECT_GE(r.history[k].sim_seconds, r.history[k - 1].sim_seconds);
    EXPECT_GE(r.history[k].relaxations, r.history[k - 1].relaxations);
  }
}

TEST(DistAsync, DelayedProcessStillAllowsProgress) {
  // Sec. IV-C in distributed form: one rank 50x slower; the others keep
  // reducing the residual.
  const auto p = fd_problem(12, 12, 15);
  DistOptions o;
  o.num_processes = 6;
  o.max_iterations = 300;
  o.delayed_process = 3;
  o.delay_factor = 50.0;
  const auto part = partition::contiguous_partition(p.a.num_rows(), 6);
  const DistResult r = solve_distributed(p.a, p.b, p.x0, part, o);
  EXPECT_LT(r.final_rel_residual_1, 0.2);
  // The delayed rank really ran slower: the whole run (which waits for its
  // 300 iterations) takes far longer in simulated time than without delay.
  DistOptions no_delay = o;
  no_delay.delayed_process = -1;
  no_delay.delay_factor = 1.0;
  const DistResult fast = solve_distributed(p.a, p.b, p.x0, part, no_delay);
  EXPECT_GT(r.sim_seconds, 10.0 * fast.sim_seconds);
}

TEST(DistAsync, OrderedDeliveryDropsStaleOverwrites) {
  const auto p = fd_problem(10, 10, 17);
  DistOptions base;
  base.num_processes = 8;
  base.max_iterations = 200;
  base.cost.msg_jitter_sigma = 1.0;  // heavy reordering
  const auto part = partition::contiguous_partition(p.a.num_rows(), 8);

  DistOptions raw = base;
  raw.ordered_delivery = false;
  DistOptions ordered = base;
  ordered.ordered_delivery = true;
  const DistResult r_raw = solve_distributed(p.a, p.b, p.x0, part, raw);
  const DistResult r_ord = solve_distributed(p.a, p.b, p.x0, part, ordered);
  // With this much jitter some messages must arrive out of order.
  EXPECT_GT(r_raw.reordered_messages, 0);
  EXPECT_GT(r_ord.reordered_messages, 0);
  // Both still converge on the W.D.D. problem.
  EXPECT_LT(r_raw.final_rel_residual_1, 0.05);
  EXPECT_LT(r_ord.final_rel_residual_1, 0.05);
}

TEST(DistAsync, EagerRuleTerminates) {
  const auto p = fd_problem(8, 8, 19);
  DistOptions o;
  o.num_processes = 4;
  o.update_rule = UpdateRule::kEager;
  o.max_iterations = 50;
  const DistResult r = solve_distributed(
      p.a, p.b, p.x0, partition::contiguous_partition(p.a.num_rows(), 4), o);
  // All processes end; iteration counts are bounded by the cap.
  for (index_t it : r.iterations_per_process) {
    EXPECT_LE(it, 50);
    EXPECT_GE(it, 1);
  }
  EXPECT_LT(r.final_rel_residual_1, 1.0);
}

TEST(DistAsync, TraceMatchesRelaxationCount) {
  const auto p = fd_problem(6, 6, 21);
  DistOptions o;
  o.num_processes = 4;
  o.max_iterations = 20;
  o.record_trace = true;
  const DistResult r = solve_distributed(
      p.a, p.b, p.x0, partition::contiguous_partition(p.a.num_rows(), 4), o);
  ASSERT_TRUE(r.trace.has_value());
  EXPECT_EQ(static_cast<index_t>(r.trace->events().size()),
            r.total_relaxations);
  const auto analysis = model::analyze_trace(*r.trace);
  EXPECT_EQ(analysis.orphaned, 0);
}

TEST(DistAsync, CoreContentionStretchesTime) {
  const auto p = fd_problem(10, 10, 23);
  DistOptions fat;
  fat.num_processes = 16;
  fat.max_iterations = 50;
  DistOptions thin = fat;
  thin.cost.cores = 2;
  const auto part = partition::contiguous_partition(p.a.num_rows(), 16);
  const DistResult r_fat = solve_distributed(p.a, p.b, p.x0, part, fat);
  const DistResult r_thin = solve_distributed(p.a, p.b, p.x0, part, thin);
  EXPECT_GT(r_thin.sim_seconds, r_fat.sim_seconds * 2.0);
}

TEST(DistAsync, StaleReadDiagnosticsPopulated) {
  const auto p = fd_problem(10, 10, 25);
  DistOptions o;
  o.num_processes = 8;
  o.max_iterations = 50;
  const DistResult r = solve_distributed(
      p.a, p.b, p.x0, partition::contiguous_partition(p.a.num_rows(), 8), o);
  EXPECT_GT(r.total_ghost_reads, 0);
  EXPECT_LE(r.stale_ghost_reads, r.total_ghost_reads);
  EXPECT_GT(r.total_messages, 0);
}

TEST(DistSync, ToleranceStopsEarly) {
  const auto p = fd_problem(10, 10, 27);
  DistOptions o;
  o.num_processes = 4;
  o.synchronous = true;
  o.max_iterations = 100000;
  o.tolerance = 1e-4;
  const DistResult r = solve_distributed(
      p.a, p.b, p.x0, partition::contiguous_partition(p.a.num_rows(), 4), o);
  EXPECT_TRUE(r.reached_tolerance);
  EXPECT_LT(r.iterations_per_process[0], 100000);
}

TEST(DistOptionsValidation, PartitionMismatchThrows) {
  const auto p = fd_problem(4, 4, 29);
  DistOptions o;
  o.num_processes = 3;
  EXPECT_THROW(
      solve_distributed(p.a, p.b, p.x0,
                        partition::contiguous_partition(p.a.num_rows(), 4), o),
      std::logic_error);
}

TEST(DistOptionsValidation, MalformedPartitionThrows) {
  // Right part count and row total, but row 0 is owned by nobody.
  const auto p = fd_problem(4, 4, 29);
  const index_t n = p.a.num_rows();
  DistOptions o;
  o.num_processes = 2;
  EXPECT_THROW(solve_distributed(p.a, p.b, p.x0,
                                 partition::Partition{{1, n / 2, n}}, o),
               std::logic_error);
}

/// Runs solve_distributed on a 4x4 FD problem at 2 processes with `o`'s
/// fields set by `edit`, and expects a std::logic_error naming `needle`.
template <class Edit>
void expect_dist_rejected(Edit&& edit, const char* needle) {
  const auto p = fd_problem(4, 4, 29);
  DistOptions o;
  o.num_processes = 2;
  o.max_iterations = 5;
  edit(o);
  try {
    (void)solve_distributed(p.a, p.b, p.x0,
                            partition::contiguous_partition(p.a.num_rows(), 2),
                            o);
    ADD_FAILURE() << "options were accepted";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(needle), std::string::npos)
        << "missing \"" << needle << "\" in: " << what;
  }
}

TEST(DistOptionsValidation, NanDelayFactorIsRejected) {
  expect_dist_rejected(
      [](DistOptions& o) {
        o.delayed_process = 1;
        o.delay_factor = std::numeric_limits<double>::quiet_NaN();
      },
      "is not finite");
}

TEST(DistOptionsValidation, InfiniteDelayFactorIsRejected) {
  expect_dist_rejected(
      [](DistOptions& o) {
        o.delayed_process = 1;
        o.delay_factor = std::numeric_limits<double>::infinity();
      },
      "is not finite");
}

TEST(DistOptionsValidation, NegativeDelayFactorIsRejected) {
  expect_dist_rejected(
      [](DistOptions& o) {
        o.delayed_process = 0;
        o.delay_factor = -2.0;
      },
      "delay_factor -2 < 1");
}

TEST(DistOptionsValidation, SubOneDelayFactorIsRejected) {
  expect_dist_rejected(
      [](DistOptions& o) {
        o.delayed_process = 0;
        o.delay_factor = 0.5;
      },
      "delay_factor 0.5 < 1");
}

TEST(DistOptionsValidation, OutOfRangeDelayedProcessIsRejected) {
  expect_dist_rejected(
      [](DistOptions& o) {
        o.delayed_process = 2;
        o.delay_factor = 4.0;
      },
      "delayed_process 2 out of range for 2 processes");
  expect_dist_rejected(
      [](DistOptions& o) {
        o.delayed_process = -2;
        o.delay_factor = 4.0;
      },
      "delayed_process -2 out of range for 2 processes");
}

TEST(DistOptionsValidation, NanToleranceIsRejected) {
  expect_dist_rejected(
      [](DistOptions& o) {
        o.tolerance = std::numeric_limits<double>::quiet_NaN();
      },
      "tolerance is NaN");
}

TEST(DistAsync, RowLevelPutsStillConverge) {
  const auto p = fd_problem(10, 10, 31);
  DistOptions o;
  o.num_processes = 8;
  o.max_iterations = 2000;
  o.tolerance = 1e-5;
  o.row_level_puts = true;
  const DistResult r = solve_distributed(
      p.a, p.b, p.x0, partition::contiguous_partition(p.a.num_rows(), 8), o);
  EXPECT_TRUE(r.reached_tolerance);
}

}  // namespace
}  // namespace ajac::distsim
