// One OS thread reproduces a threaded lockstep solve. The P actor steps of
// a shared solve (solve_hooks.hpp's SharedSolve, the code each OpenMP
// thread of solve_shared runs) are stepped here phase by phase, the actors
// in order within each phase, and must give bitwise the result of a
// P-thread synchronous solve_shared. This is also the seam a schedule
// explorer drives: any order of phases is a call sequence on these steps.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ajac/gen/fd.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/partition/partition.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "ajac/sparse/blocked_csr.hpp"
#include "solve_hooks.hpp"
#include "test_helpers.hpp"

namespace ajac {
namespace {

using runtime::detail::NullFaults;
using runtime::detail::SharedInputs;
using runtime::detail::SharedSolve;

/// solve_shared's synchronous solve with its actors stepped on the
/// calling thread: each phase for actor 0, 1, ..., P-1, where the threads
/// would meet at a barrier.
template <bool Blocked>
runtime::SharedResult solve_on_one_thread(const gen::LinearProblem& p,
                                          const runtime::SharedOptions& o) {
  const partition::Partition part =
      partition::contiguous_partition(p.a.num_rows(), o.num_threads);
  std::optional<BlockedCsr> blocked;
  if (Blocked) {
    blocked.emplace(p.a, std::span<const index_t>(part.block_starts));
  }
  SharedSolve<NullFaults, Blocked> solve(
      SharedInputs{p.a, p.b, p.x0, o, part, nullptr,
                   blocked ? &*blocked : nullptr, nullptr});
  std::vector<typename SharedSolve<NullFaults, Blocked>::Step> steps;
  steps.reserve(static_cast<std::size_t>(o.num_threads));
  for (index_t t = 0; t < o.num_threads; ++t) steps.push_back(solve.actor(t));
  while (steps.front().live()) {
    for (auto& s : steps) s.stage();
    for (auto& s : steps) s.settle();
    for (auto& s : steps) s.decide();
    for (auto& s : steps) s.close();
  }
  for (auto& s : steps) s.retire();
  return solve.finish();
}

void expect_bitwise_same(const runtime::SharedResult& stepped,
                         const runtime::SharedResult& threaded) {
  ASSERT_EQ(stepped.x.size(), threaded.x.size());
  for (std::size_t i = 0; i < stepped.x.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(stepped.x[i]),
              std::bit_cast<std::uint64_t>(threaded.x[i]))
        << "row " << i;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(stepped.final_rel_residual_1),
            std::bit_cast<std::uint64_t>(threaded.final_rel_residual_1));
  EXPECT_EQ(stepped.iterations_per_thread, threaded.iterations_per_thread);
  EXPECT_EQ(stepped.total_relaxations, threaded.total_relaxations);
  EXPECT_EQ(stepped.converged, threaded.converged);
}

TEST(ActorStep, OneThreadSteppingReproducesFourThreadSyncSolve) {
  const auto p = gen::make_problem("fd24", gen::fd_laplacian_2d(24, 24),
                                   testing::test_seed(/*salt=*/28));
  runtime::SharedOptions o;
  o.num_threads = 4;
  o.synchronous = true;
  o.tolerance = 1e-6;
  o.record_history = false;
  for (const auto kernel :
       {runtime::KernelKind::kBlocked, runtime::KernelKind::kReference}) {
    SCOPED_TRACE(kernel == runtime::KernelKind::kBlocked ? "kBlocked"
                                                         : "kReference");
    o.kernel = kernel;
    const runtime::SharedResult threaded =
        runtime::solve_shared(p.a, p.b, p.x0, o);
    ASSERT_TRUE(threaded.converged);
    const runtime::SharedResult stepped =
        kernel == runtime::KernelKind::kBlocked
            ? solve_on_one_thread<true>(p, o)
            : solve_on_one_thread<false>(p, o);
    expect_bitwise_same(stepped, threaded);
  }
}

}  // namespace
}  // namespace ajac
