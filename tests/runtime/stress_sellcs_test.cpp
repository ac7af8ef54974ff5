// Concurrency stress harness for the kSellCS data plane (designed to run
// under ThreadSanitizer: `ctest --preset tsan` — the suite name matches
// the tsan preset's test filter).
//
// What makes this path racier than the blocked kernel it extends: each
// thread refreshes a dense ghost buffer once per local iteration with a
// burst of x.read() calls against columns its neighbours are concurrently
// committing — a bulk racy-read pattern the per-entry blocked reads never
// batch up.
//
// The race is intended (relaxed atomics; see racy-ok annotations in
// shared_vector.hpp), so the point under TSan is proving the *rest* of
// the machinery — buffer sizing, first-touch SELL construction, fork/join
// edges — is clean. Each run also verifies the
// solver's postconditions, so the file doubles as a correctness soak.

#include "ajac/runtime/shared_jacobi.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "ajac/fault/fault_plan.hpp"
#include "ajac/gen/fd.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/partition/partition.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "test_helpers.hpp"

namespace ajac::runtime {
namespace {

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

TEST(StressSellCS, AsyncThreadSweep) {
  // Oversubscribed + yield maximizes interleavings of whole-buffer ghost
  // refreshes against neighbour commits.
  const auto p = small_problem(61);
  for (index_t threads : {1, 2, 4, 8}) {
    SharedOptions so;
    so.num_threads = threads;
    so.kernel = KernelKind::kSellCS;
    so.tolerance = 1e-5;
    so.max_iterations = 200000;
    so.record_history = false;
    so.yield = true;
    const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
    verify_result(p, r, so.tolerance);
  }
}

TEST(StressSellCS, SynchronousBarrierSweep) {
  // Synchronous mode hands the whole committed x across a barrier into
  // the next round's refreshes — the handoff the bitwise-equivalence
  // contract leans on; TSan checks the barrier edges carry it.
  const auto p = small_problem(65);
  for (index_t threads : {2, 4}) {
    SharedOptions so;
    so.num_threads = threads;
    so.kernel = KernelKind::kSellCS;
    so.synchronous = true;
    so.tolerance = 1e-5;
    so.max_iterations = 20000;
    so.record_history = true;
    const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
    verify_result(p, r, so.tolerance);
  }
}

TEST(StressSellCS, NnzPartitionWithStragglers) {
  // The production configuration at large n: nnz-balanced partition plus
  // injected stragglers, so refresh bursts hit blocks mid-commit at
  // staggered phases.
  const auto p = small_problem(67);
  SharedOptions so;
  so.num_threads = 4;
  so.kernel = KernelKind::kSellCS;
  so.partition = partition::nnz_balanced_partition(p.a, 4);
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

TEST(StressSellCS, BackToBackSolvesReuseThreadPool) {
  // Solves across pooled-thread reuse: the SellCsr is rebuilt per solve,
  // so stale happens-before edges from a previous solve's first-touch
  // fill would surface here.
  const auto p = small_problem(69);
  for (int round = 0; round < 3; ++round) {
    SharedOptions so;
    so.num_threads = 3;
    so.kernel = KernelKind::kSellCS;
    so.tolerance = 1e-4;
    so.max_iterations = 200000;
    so.record_history = false;
    so.yield = true;
    const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
    verify_result(p, r, so.tolerance);
  }
}

}  // namespace
}  // namespace ajac::runtime
