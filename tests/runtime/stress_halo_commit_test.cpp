// Stress harness for the halo-only blocked commit and the verification
// rounds (designed to run under ThreadSanitizer: `ctest --preset tsan`).
//
// The blocked Jacobi commit publishes only the rows other blocks read;
// each actor keeps the rest in its private mirror and publishes it once
// after its loop, and the stop is verified by rounds to which every actor
// adds its own rows' fresh residual norm. Back-to-back asynchronous solves
// at 2-4 threads on FD 64² reuse the OpenMP pool, which is where TSan sees
// the hand-offs between a finished solve and the next one. The fault plan
// adds a crash with state reset (the own rows restart from x0 on the
// shared vector, behind the mirror) and a straggler that delays its
// share of each round. Every solve must report a verified convergence.

#include <gtest/gtest.h>

#include <memory>

#include "ajac/fault/fault_plan.hpp"
#include "ajac/gen/fd.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "test_helpers.hpp"

namespace ajac::runtime {
namespace {

constexpr double kTol = 1e-3;

void run_back_to_back(std::shared_ptr<const fault::FaultPlan> plan) {
  const auto p = gen::make_problem("fd64", gen::fd_laplacian_2d(64, 64),
                                   ajac::testing::test_seed(/*salt=*/351));
  for (const index_t threads : {2, 3, 4}) {
    for (int rep = 0; rep < 2; ++rep) {
      SCOPED_TRACE(::testing::Message()
                   << threads << " threads, solve " << rep
                   << ", AJAC_TEST_SEED base " << ajac::testing::test_seed());
      SharedOptions so;
      so.num_threads = threads;
      so.kernel = KernelKind::kBlocked;
      so.tolerance = kTol;
      so.max_iterations = 200000;
      so.record_history = false;
      so.yield = true;  // round-robin on hosts with fewer cores than threads
      so.fault_plan = plan;
      const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
      EXPECT_TRUE(r.converged);
      EXPECT_LE(r.final_rel_residual_1, kTol);
      if (plan != nullptr) {
        EXPECT_FALSE(r.fault_events.empty());
      }
    }
  }
}

TEST(StressHaloCommit, BackToBackAsyncBlockedSolves) {
  run_back_to_back(nullptr);
}

TEST(StressHaloCommit, CrashResetAndStragglerPlan) {
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->seed = ajac::testing::test_seed(/*salt=*/352);
  plan->crashes.push_back({.actor = 1,
                           .crash_iteration = 40,
                           .dead_seconds = 2e-4,
                           .reset_state_on_recovery = true});
  plan->stragglers.push_back(
      {.actor = 0, .extra_delay_us = 50.0, .period = 64, .duty = 0.25});
  run_back_to_back(plan);
}

}  // namespace
}  // namespace ajac::runtime
