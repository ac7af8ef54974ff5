// Determinism and fault-interaction contract for the sampled row policies
// on the simulator, the only runtime that samples rows: a (seed, policy)
// pair pins the entire schedule, fault logs replay bitwise run to run, the
// policy stream never perturbs iteration-keyed fault decisions, and
// recorded traces replay through the Φ(l) model identically. The shared
// runtime relaxes in natural order only (its in-place schedule is
// local_gauss_seidel; tests/runtime/local_gs_test.cpp).

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ajac/distsim/dist_jacobi.hpp"
#include "ajac/fault/fault_plan.hpp"
#include "ajac/gen/fd.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/model/executor.hpp"
#include "ajac/model/trace.hpp"
#include "ajac/partition/partition.hpp"
#include "ajac/runtime/row_policy.hpp"
#include "ajac/sparse/csr.hpp"
#include "test_helpers.hpp"

namespace ajac::runtime {
namespace {

using ajac::testing::test_seed;

distsim::DistOptions base_async(RowPolicy policy) {
  distsim::DistOptions o;
  o.num_processes = 4;
  o.tolerance = 0.0;  // run to the cap: iteration counts are pinned
  o.max_iterations = 24;
  o.seed = test_seed(11);
  o.policy = policy;
  return o;
}

void expect_same_fault_log(const std::vector<fault::FaultEvent>& a,
                           const std::vector<fault::FaultEvent>& b,
                           const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_TRUE(a[k] == b[k]) << what << ": event " << k << " differs";
  }
}

TEST(PolicyDeterminism, SameSeedSamePolicySameFaultLog) {
  // Every fault kind the simulator honours (straggler, stale-delivery
  // window, message drop / duplicate / reorder, crash with state reset)
  // plus a sampled policy: two runs of the same configuration must produce
  // element-wise identical fault logs and the bitwise-identical iterate,
  // which the drawn schedule decides.
  const auto p =
      gen::make_problem("fd", gen::fd_laplacian_2d(12, 12), test_seed(1));
  const auto part = partition::contiguous_partition(p.a.num_rows(), 4);
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->seed = test_seed(2);
  plan->stragglers.push_back(
      {.actor = 0, .extra_delay_us = 1.0, .period = 8, .duty = 0.5});
  plan->stale_reads.push_back({.actor = -1, .period = 8, .duty = 0.5});
  plan->message_faults.push_back({.drop_probability = 0.2,
                                  .duplicate_probability = 0.2,
                                  .reorder_probability = 0.2});
  plan->crashes.push_back({.actor = 1,
                           .crash_iteration = 6,
                           .dead_seconds = 1e-4,
                           .reset_state_on_recovery = true});

  for (const RowPolicy policy : {RowPolicy::kUniformRandom}) {
    SCOPED_TRACE(policy_name(policy));
    distsim::DistOptions o = base_async(policy);
    o.fault_plan = plan;
    const auto r1 = distsim::solve_distributed(p.a, p.b, p.x0, part, o);
    const auto r2 = distsim::solve_distributed(p.a, p.b, p.x0, part, o);
    ASSERT_FALSE(r1.fault_events.empty());
    expect_same_fault_log(r1.fault_events, r2.fault_events,
                          std::string("policy ") + policy_name(policy));
    ASSERT_EQ(r1.x.size(), r2.x.size());
    for (std::size_t i = 0; i < r1.x.size(); ++i) {
      ASSERT_EQ(r1.x[i], r2.x[i]) << "row " << i;
    }
  }
}

TEST(PolicyDeterminism, PolicyStreamDoesNotPerturbIterationKeyedFaults) {
  // Straggler / stale-window / crash decisions are keyed on the local
  // iteration counter, message faults on the per-edge message index, and
  // with tolerance 0 every rank runs to max_iterations sending one put per
  // neighbour per iteration — so swapping the row policy (which changes
  // *what* each iteration relaxes, not *how many* iterations run or what
  // they send) must leave the fault log bitwise unchanged.
  const auto p =
      gen::make_problem("fd", gen::fd_laplacian_2d(12, 12), test_seed(3));
  const auto part = partition::contiguous_partition(p.a.num_rows(), 4);
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->seed = test_seed(4);
  plan->stragglers.push_back(
      {.actor = 1, .extra_delay_us = 1.0, .period = 6, .duty = 0.5});
  plan->stale_reads.push_back({.actor = -1, .period = 10, .duty = 0.3});
  plan->message_faults.push_back({.drop_probability = 0.2,
                                  .duplicate_probability = 0.2,
                                  .reorder_probability = 0.2});
  plan->crashes.push_back({.actor = 0,
                           .crash_iteration = 9,
                           .dead_seconds = 1e-4,
                           .reset_state_on_recovery = false});

  std::vector<std::vector<fault::FaultEvent>> logs;
  for (const RowPolicy policy :
       {RowPolicy::kNaturalOrder, RowPolicy::kUniformRandom}) {
    distsim::DistOptions o = base_async(policy);
    o.fault_plan = plan;
    logs.push_back(
        distsim::solve_distributed(p.a, p.b, p.x0, part, o).fault_events);
  }
  ASSERT_FALSE(logs[0].empty());
  expect_same_fault_log(logs[0], logs[1], "natural vs uniform");
}

TEST(PolicyDeterminism, DistsimTraceReplaysSeedDeterministically) {
  // A recorded sampled-policy trace is a complete account of the run: the
  // same seed records the same trace twice, and replaying it through the
  // model executor reconstructs the same residual history both times.
  const auto p =
      gen::make_problem("fd", gen::fd_laplacian_2d(12, 12), test_seed(5));
  const auto part = partition::contiguous_partition(p.a.num_rows(), 4);
  for (const RowPolicy policy : {RowPolicy::kUniformRandom}) {
    SCOPED_TRACE(policy_name(policy));
    distsim::DistOptions o;
    o.num_processes = 4;
    o.max_iterations = 8;
    o.tolerance = 0.0;
    o.seed = test_seed(6);
    o.record_trace = true;
    o.policy = policy;
    const auto r1 = distsim::solve_distributed(p.a, p.b, p.x0, part, o);
    const auto r2 = distsim::solve_distributed(p.a, p.b, p.x0, part, o);
    ASSERT_TRUE(r1.trace.has_value());
    ASSERT_TRUE(r2.trace.has_value());
    EXPECT_EQ(model::to_json(*r1.trace), model::to_json(*r2.trace));

    model::ExecutorOptions eo;
    eo.tolerance = 0.0;
    const auto replay1 = model::replay_trace(p.a, p.b, p.x0, *r1.trace, eo);
    const auto replay2 = model::replay_trace(p.a, p.b, p.x0, *r2.trace, eo);
    ASSERT_EQ(replay1.result.history.size(), replay2.result.history.size());
    ASSERT_FALSE(replay1.result.history.empty());
    for (std::size_t k = 0; k < replay1.result.history.size(); ++k) {
      EXPECT_EQ(replay1.result.history[k].rel_residual_1,
                replay2.result.history[k].rel_residual_1)
          << "history point " << k;
    }
  }
}

TEST(PolicyDeterminism, DistsimSampledConfigChecks) {
  const auto p =
      gen::make_problem("fd", gen::fd_laplacian_2d(8, 8), test_seed(10));
  const auto part = partition::contiguous_partition(p.a.num_rows(), 2);
  distsim::DistOptions o;
  o.num_processes = 2;
  o.max_iterations = 4;
  o.policy = RowPolicy::kUniformRandom;

  distsim::DistOptions sync = o;
  sync.synchronous = true;
  EXPECT_THROW(distsim::solve_distributed(p.a, p.b, p.x0, part, sync),
               std::logic_error);

  distsim::DistOptions gs = o;
  gs.inner_sweep = distsim::InnerSweep::kGaussSeidel;
  EXPECT_THROW(distsim::solve_distributed(p.a, p.b, p.x0, part, gs),
               std::logic_error);
}

}  // namespace
}  // namespace ajac::runtime
