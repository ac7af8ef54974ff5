// Fault injection in the shared-memory runtime: convergence under every
// fault class, hook correctness, and log determinism (the SharedFault*
// suites also run under ThreadSanitizer — see CMakePresets.json).

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "ajac/fault/fault_plan.hpp"
#include "ajac/gen/fd.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "fault_test_util.hpp"
#include "test_helpers.hpp"

namespace ajac::runtime {
namespace {

gen::LinearProblem problem(std::uint64_t salt = 0) {
  return gen::make_problem("fd", gen::fd_laplacian_2d(10, 10),
                           ajac::testing::test_seed(salt));
}

SharedOptions base_options(index_t threads) {
  SharedOptions o;
  o.num_threads = threads;
  o.tolerance = 1e-6;
  o.max_iterations = 100000;
  o.record_history = false;
  o.yield = true;
  return o;
}

std::shared_ptr<fault::FaultPlan> make_plan() {
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->seed = ajac::testing::test_seed();
  return plan;
}

TEST(SharedFaults, SingleThreadPlanMatchesNoPlanBitwise) {
  // With one thread the async solve is deterministic, and a plan without
  // stale reads or bit flips must not perturb the arithmetic: the hooks
  // only cost time. This pins the ActiveFaults read/flip paths as exact
  // pass-throughs.
  const auto p = problem();
  auto o = base_options(1);
  const SharedResult clean = solve_shared(p.a, p.b, p.x0, o);
  auto plan = make_plan();
  plan->stragglers.push_back(
      {.actor = 0, .extra_delay_us = 1.0, .period = 8, .duty = 0.5});
  plan->crashes.push_back(
      {.actor = 0, .crash_iteration = 4, .dead_seconds = 1e-5});
  o.fault_plan = plan;
  const SharedResult faulty = solve_shared(p.a, p.b, p.x0, o);
  ASSERT_EQ(clean.x.size(), faulty.x.size());
  for (std::size_t i = 0; i < clean.x.size(); ++i) {
    ASSERT_EQ(clean.x[i], faulty.x[i]) << "diverged at row " << i;
  }
  EXPECT_FALSE(faulty.fault_events.empty());
  EXPECT_TRUE(clean.fault_events.empty());
}

TEST(SharedFaults, EmptyPlanBehavesLikeNullPointer) {
  const auto p = problem();
  auto o = base_options(2);
  o.fault_plan = std::make_shared<fault::FaultPlan>();  // empty: no-op path
  const SharedResult r = solve_shared(p.a, p.b, p.x0, o);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.fault_events.empty());
}

TEST(SharedFaults, ConvergesUnderEachFaultClass) {
  const auto p = problem();
  struct Case {
    const char* name;
    std::shared_ptr<fault::FaultPlan> plan;
  };
  std::vector<Case> cases;
  {
    auto plan = make_plan();
    plan->stragglers.push_back(
        {.actor = 0, .extra_delay_us = 30.0, .period = 16, .duty = 0.5});
    cases.push_back({"straggler", plan});
  }
  {
    auto plan = make_plan();
    plan->stale_reads.push_back({.actor = -1, .period = 16, .duty = 0.5});
    cases.push_back({"stale", plan});
  }
  {
    auto plan = make_plan();
    plan->bit_flips.push_back({.actor = -1, .probability = 1e-3, .bit = 16});
    cases.push_back({"bitflip", plan});
  }
  {
    auto plan = make_plan();
    plan->crashes.push_back(
        {.actor = 1, .crash_iteration = 8, .dead_seconds = 1e-4});
    cases.push_back({"crash", plan});
  }
  {
    auto plan = make_plan();
    plan->crashes.push_back({.actor = 1,
                             .crash_iteration = 8,
                             .dead_seconds = 1e-4,
                             .reset_state_on_recovery = true});
    cases.push_back({"crash+reset", plan});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto o = base_options(4);
    o.fault_plan = c.plan;
    const SharedResult r = solve_shared(p.a, p.b, p.x0, o);
    EXPECT_TRUE(r.converged);
    Vector res(p.b.size());
    p.a.residual(r.x, p.b, res);
    Vector r0(p.b.size());
    p.a.residual(p.x0, p.b, r0);
    EXPECT_LE(vec::norm1(res) / vec::norm1(r0), o.tolerance * 1.5);
    ajac::testing::dump_fault_log_if_failed(
        std::string("shared_converge_") + c.name, r.fault_events);
  }
}

TEST(SharedFaults, StragglerLogsWindowEntries) {
  const auto p = problem();
  auto o = base_options(4);
  o.tolerance = 0.0;  // fixed-length run: iteration counts are exact
  o.max_iterations = 64;
  o.final_polish = false;
  auto plan = make_plan();
  plan->stragglers.push_back(
      {.actor = 0, .extra_delay_us = 1.0, .period = 16, .duty = 0.5});
  o.fault_plan = plan;
  const SharedResult r = solve_shared(p.a, p.b, p.x0, o);
  // Window entries at iterations 0, 16, 32, 48 of actor 0 and nothing
  // else: threads park at the iteration cap rather than overrun it, so
  // the whole log — not just a below-cap slice — is exact.
  const fault::FaultLog& log = r.fault_events;
  ASSERT_EQ(log.size(), 4u);
  for (std::size_t k = 0; k < log.size(); ++k) {
    EXPECT_EQ(log[k].kind, fault::FaultKind::kStragglerOn);
    EXPECT_EQ(log[k].actor, 0);
    EXPECT_EQ(log[k].counter, static_cast<index_t>(16 * k));
  }
  ajac::testing::dump_fault_log_if_failed("shared_straggler_windows",
                                          r.fault_events);
}

TEST(SharedFaults, CrashLogsCrashThenRecover) {
  const auto p = problem();
  auto o = base_options(4);
  o.tolerance = 0.0;
  o.max_iterations = 32;
  o.final_polish = false;
  auto plan = make_plan();
  plan->crashes.push_back(
      {.actor = 2, .crash_iteration = 10, .dead_seconds = 1e-5});
  o.fault_plan = plan;
  const SharedResult r = solve_shared(p.a, p.b, p.x0, o);
  ASSERT_EQ(r.fault_events.size(), 2u);
  EXPECT_EQ(r.fault_events[0].kind, fault::FaultKind::kCrash);
  EXPECT_EQ(r.fault_events[0].actor, 2);
  EXPECT_EQ(r.fault_events[0].counter, 10);
  EXPECT_EQ(r.fault_events[1].kind, fault::FaultKind::kRecover);
  EXPECT_EQ(r.fault_events[1].actor, 2);
  ajac::testing::dump_fault_log_if_failed("shared_crash_recover",
                                          r.fault_events);
}

TEST(SharedFaults, BitFlipEventsCarryRowAndBit) {
  const auto p = problem();
  const index_t n = p.a.num_rows();
  auto o = base_options(4);
  o.tolerance = 0.0;
  o.max_iterations = 64;
  o.final_polish = false;
  auto plan = make_plan();
  plan->bit_flips.push_back({.actor = -1, .probability = 0.05, .bit = -1});
  o.fault_plan = plan;
  const SharedResult r = solve_shared(p.a, p.b, p.x0, o);
  EXPECT_FALSE(r.fault_events.empty());  // ~0.05 * 4 * 64 * 25 expected hits
  for (const fault::FaultEvent& e : r.fault_events) {
    EXPECT_EQ(e.kind, fault::FaultKind::kBitFlip);
    EXPECT_GE(e.detail, 0);   // flipped row
    EXPECT_LT(e.detail, n);
    EXPECT_GE(e.detail2, 0);  // mantissa bit
    EXPECT_LT(e.detail2, 52);
  }
  ajac::testing::dump_fault_log_if_failed("shared_bitflip_rows",
                                          r.fault_events);
}

TEST(SharedFaults, SynchronousModeRejectsPlan) {
  const auto p = problem();
  auto o = base_options(2);
  o.synchronous = true;
  // A plan of stragglers only is accepted in synchronous mode (it is the
  // paper's slowed thread); any fault kind that acts on reads is not.
  auto plan = make_plan();
  plan->stale_reads.push_back({.actor = 0});
  o.fault_plan = plan;
  EXPECT_THROW(solve_shared(p.a, p.b, p.x0, o), std::logic_error);
}

TEST(SharedFaults, PlanValidatedAgainstThreadCount) {
  const auto p = problem();
  auto o = base_options(2);
  auto plan = make_plan();
  plan->stragglers.push_back({.actor = 5});  // no such thread
  o.fault_plan = plan;
  EXPECT_THROW(solve_shared(p.a, p.b, p.x0, o), std::logic_error);
}

// Same plan, same thread count => bitwise-identical fault logs, no matter
// how the OS interleaves the threads. Every decision is a pure hash of
// logical coordinates, so the log is a slice of a fixed decision table —
// and because threads park at the iteration cap instead of overrunning
// it, the executed coordinate set is exactly [0, max_iterations) per
// thread. The full log is compared, with no below-cap filtering.
TEST(SharedFaultDeterminism, SameSeedSameLog) {
  const auto p = problem();
  auto o = base_options(4);
  o.tolerance = 0.0;
  o.max_iterations = 48;
  o.final_polish = false;
  auto plan = make_plan();
  plan->stragglers.push_back(
      {.actor = 0, .extra_delay_us = 5.0, .period = 16, .duty = 0.5});
  plan->stale_reads.push_back({.actor = 1, .period = 8, .duty = 0.5});
  plan->bit_flips.push_back({.actor = -1, .probability = 0.02, .bit = -1});
  plan->crashes.push_back(
      {.actor = 3, .crash_iteration = 7, .dead_seconds = 1e-5});
  o.fault_plan = plan;
  const SharedResult first = solve_shared(p.a, p.b, p.x0, o);
  const SharedResult second = solve_shared(p.a, p.b, p.x0, o);
  EXPECT_FALSE(first.fault_events.empty());
  EXPECT_EQ(first.fault_events, second.fault_events);
  ajac::testing::dump_fault_log_if_failed("shared_determinism_run1",
                                          first.fault_events);
  ajac::testing::dump_fault_log_if_failed("shared_determinism_run2",
                                          second.fault_events);
}

// The determinism contract is kernel-independent: fault decisions hash
// logical coordinates (seed, thread, iteration, row) that both kernel
// paths visit identically, so the blocked layer reproduces the reference
// path's log exactly, not merely its own.
TEST(SharedFaultDeterminism, SameSeedSameLogBlockedKernel) {
  const auto p = problem();
  auto o = base_options(4);
  o.tolerance = 0.0;
  o.max_iterations = 48;
  o.final_polish = false;
  auto plan = make_plan();
  plan->stragglers.push_back(
      {.actor = 0, .extra_delay_us = 5.0, .period = 16, .duty = 0.5});
  plan->stale_reads.push_back({.actor = 1, .period = 8, .duty = 0.5});
  plan->bit_flips.push_back({.actor = -1, .probability = 0.02, .bit = -1});
  plan->crashes.push_back({.actor = 3,
                           .crash_iteration = 7,
                           .dead_seconds = 1e-5,
                           .reset_state_on_recovery = true});
  o.fault_plan = plan;
  o.kernel = KernelKind::kBlocked;
  const SharedResult first = solve_shared(p.a, p.b, p.x0, o);
  const SharedResult second = solve_shared(p.a, p.b, p.x0, o);
  o.kernel = KernelKind::kReference;
  const SharedResult reference = solve_shared(p.a, p.b, p.x0, o);
  EXPECT_FALSE(first.fault_events.empty());
  EXPECT_EQ(first.fault_events, second.fault_events);
  EXPECT_EQ(first.fault_events, reference.fault_events);
  ajac::testing::dump_fault_log_if_failed("shared_determinism_blocked_run1",
                                          first.fault_events);
  ajac::testing::dump_fault_log_if_failed("shared_determinism_blocked_run2",
                                          second.fault_events);
  ajac::testing::dump_fault_log_if_failed("shared_determinism_blocked_ref",
                                          reference.fault_events);
}

TEST(SharedFaultDeterminism, DifferentSeedsDiverge) {
  const auto p = problem();
  auto o = base_options(4);
  o.tolerance = 0.0;
  o.max_iterations = 48;
  o.final_polish = false;
  auto plan_a = make_plan();
  plan_a->bit_flips.push_back({.actor = -1, .probability = 0.05, .bit = -1});
  auto plan_b = std::make_shared<fault::FaultPlan>(*plan_a);
  plan_b->seed = plan_a->seed + 1;
  o.fault_plan = plan_a;
  const SharedResult a = solve_shared(p.a, p.b, p.x0, o);
  o.fault_plan = plan_b;
  const SharedResult b = solve_shared(p.a, p.b, p.x0, o);
  EXPECT_FALSE(a.fault_events.empty());
  EXPECT_NE(a.fault_events, b.fault_events);
}

}  // namespace
}  // namespace ajac::runtime
