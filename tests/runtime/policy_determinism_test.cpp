// Determinism and fault-interaction contract for the sampled row policies:
// a (seed, policy) pair pins the entire schedule, fault logs replay bitwise
// run to run, the policy stream never perturbs iteration-keyed fault
// decisions, recorded distsim traces replay through the Φ(l) model
// identically, and a k = 1 batch draws the same rows as the scalar solver.
// Everything here runs under the tsan preset too (filter: ^...|Policy...),
// where a racy sampler would trip the data-race detector.

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
#include "ajac/runtime/shared_jacobi.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/multi_vector.hpp"
#include "test_helpers.hpp"

namespace ajac::runtime {
namespace {

using ajac::testing::test_seed;

SharedOptions base_async(RowPolicy policy) {
  SharedOptions o;
  o.num_threads = 2;
  o.tolerance = 0.0;  // park at the cap: iteration counts are pinned
  o.max_iterations = 24;
  o.record_history = false;
  o.yield = true;
  o.final_polish = false;
  o.policy = policy;
  o.policy_seed = test_seed(11);
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
  // Full fault menu (straggler, stale window, bit flips, crash) plus a
  // sampled policy: two runs of the same configuration must produce
  // element-wise identical fault logs. Bit flips are keyed on the relaxed
  // row, so this also proves the drawn schedule itself is replayed.
  //
  // The uniform schedule is a pure function of the seed, so it replays
  // bitwise at any thread count.
  const auto p =
      gen::make_problem("fd", gen::fd_laplacian_2d(12, 12), test_seed(1));
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->seed = test_seed(2);
  plan->stragglers.push_back(
      {.actor = 0, .extra_delay_us = 1.0, .period = 8, .duty = 0.5});
  plan->stale_reads.push_back({.actor = -1, .period = 8, .duty = 0.5});
  plan->bit_flips.push_back({.actor = -1, .probability = 5e-3, .bit = 16});
  plan->crashes.push_back({.actor = 1,
                           .crash_iteration = 6,
                           .dead_seconds = 1e-4,
                           .reset_state_on_recovery = true});

  for (const RowPolicy policy : {RowPolicy::kUniformRandom}) {
    SharedOptions o = base_async(policy);
    o.fault_plan = plan;
    const SharedResult r1 = solve_shared(p.a, p.b, p.x0, o);
    const SharedResult r2 = solve_shared(p.a, p.b, p.x0, o);
    ASSERT_FALSE(r1.fault_events.empty());
    expect_same_fault_log(r1.fault_events, r2.fault_events,
                          std::string("policy ") + policy_name(policy));
  }
}

TEST(PolicyDeterminism, PolicyStreamDoesNotPerturbIterationKeyedFaults) {
  // Straggler / stale-window / crash decisions are keyed on the local
  // iteration counter alone, and with tolerance 0 every thread parks at
  // max_iterations — so swapping the row policy (which changes *what* each
  // iteration relaxes, not *how many* iterations run) must leave the fault
  // log bitwise unchanged. Bit flips are deliberately absent: they key on
  // the relaxed row and legitimately differ across policies.
  const auto p =
      gen::make_problem("fd", gen::fd_laplacian_2d(12, 12), test_seed(3));
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->seed = test_seed(4);
  plan->stragglers.push_back(
      {.actor = 1, .extra_delay_us = 1.0, .period = 6, .duty = 0.5});
  plan->stale_reads.push_back({.actor = -1, .period = 10, .duty = 0.3});
  plan->crashes.push_back({.actor = 0,
                           .crash_iteration = 9,
                           .dead_seconds = 1e-4,
                           .reset_state_on_recovery = false});

  std::vector<std::vector<fault::FaultEvent>> logs;
  for (const RowPolicy policy :
       {RowPolicy::kNaturalOrder, RowPolicy::kUniformRandom}) {
    SharedOptions o = base_async(policy);
    o.fault_plan = plan;
    logs.push_back(solve_shared(p.a, p.b, p.x0, o).fault_events);
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

TEST(PolicyDeterminism, BatchK1MatchesScalarDraws) {
  // The batch solver reuses the scalar (seed, worker, iter, slot) draw
  // coordinates, so a k = 1 batch must walk the same sampled schedule and
  // land on the bitwise-identical solution for both kernels.
  const auto p =
      gen::make_problem("fd", gen::fd_laplacian_2d(10, 10), test_seed(7));
  const MultiVector b1 = MultiVector::broadcast(p.b, 1);
  const MultiVector x1 = MultiVector::broadcast(p.x0, 1);
  for (const RowPolicy policy : {RowPolicy::kUniformRandom}) {
    for (const KernelKind kernel :
         {KernelKind::kBlocked, KernelKind::kReference}) {
      SCOPED_TRACE(std::string(policy_name(policy)) + " kernel " +
                   std::to_string(static_cast<int>(kernel)));
      SharedOptions o = base_async(policy);
      o.num_threads = 1;  // single worker: async run is deterministic
      o.max_iterations = 30;
      o.kernel = kernel;
      const SharedResult scalar = solve_shared(p.a, p.b, p.x0, o);
      const SharedBatchResult batch = solve_shared_batch(p.a, b1, x1, o);
      ASSERT_EQ(batch.x.num_cols(), 1);
      ASSERT_EQ(static_cast<std::size_t>(batch.x.num_rows()),
                scalar.x.size());
      for (index_t i = 0; i < batch.x.num_rows(); ++i) {
        ASSERT_EQ(batch.x(i, 0), scalar.x[static_cast<std::size_t>(i)])
            << "row " << i;
      }
      EXPECT_EQ(batch.total_relaxations, scalar.total_relaxations);
    }
  }
}

TEST(PolicyDeterminism, SampledPoliciesConvergeMultiThread) {
  const auto p =
      gen::make_problem("fd", gen::fd_laplacian_2d(12, 12), test_seed(8));
  for (const RowPolicy policy : {RowPolicy::kUniformRandom}) {
    SCOPED_TRACE(policy_name(policy));
    SharedOptions o;
    o.num_threads = 4;
    o.tolerance = 1e-8;
    o.max_iterations = 200000;
    o.record_history = false;
    o.yield = true;
    o.policy = policy;
    o.policy_seed = test_seed(9);
    const SharedResult r = solve_shared(p.a, p.b, p.x0, o);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.final_rel_residual_1, 1e-8);
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
