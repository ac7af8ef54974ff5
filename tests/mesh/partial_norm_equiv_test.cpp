// The O(P) racy norm is one rule on every shared-memory runtime: each
// actor sums its own rows' residual in ascending row order and readers add
// the P partials in actor order. So on a contiguous partition the three
// solve_shared kernels and the synchronous mesh, which all relax the same
// rows per actor, must see bitwise the same racy norm at every iteration,
// stop at the same iteration and return the same bits.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <utility>

#include "ajac/gen/fd.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/mesh/mesh_jacobi.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "test_helpers.hpp"

namespace ajac {
namespace {

/// (actor, local iteration) -> bits of the racy relative norm it saw.
using NormTrace = std::map<std::pair<index_t, index_t>, std::uint64_t>;

template <class History>
NormTrace norm_trace(const History& history) {
  NormTrace out;
  for (const auto& pt : history) {
    index_t actor = 0;
    index_t iter = 0;
    if constexpr (requires { pt.thread; }) {
      actor = pt.thread;
      iter = pt.local_iteration;
    } else {
      actor = pt.agent;
      iter = pt.iteration;
    }
    out[{actor, iter}] = std::bit_cast<std::uint64_t>(pt.rel_residual_1);
  }
  return out;
}

TEST(PartialNorm, SynchronousKernelsAndMeshStopTogetherBitwise) {
  const auto p = gen::make_problem("fd64", gen::fd_laplacian_2d(64, 64),
                                   testing::test_seed(/*salt=*/31));
  constexpr index_t kThreads = 4;
  constexpr double kTol = 1e-2;

  runtime::SharedOptions so;
  so.num_threads = kThreads;
  so.synchronous = true;
  so.tolerance = kTol;
  so.max_iterations = 100000;
  so.record_history = true;
  so.kernel = runtime::KernelKind::kBlocked;
  const runtime::SharedResult blocked = solve_shared(p.a, p.b, p.x0, so);
  ASSERT_TRUE(blocked.converged);
  const NormTrace blocked_norms = norm_trace(blocked.history);

  mesh::MeshOptions mo;
  mo.num_agents = kThreads;
  mo.synchronous = true;
  mo.tolerance = kTol;
  mo.max_iterations = so.max_iterations;
  mo.record_history = true;
  const mesh::MeshResult mesh_run = mesh::solve_mesh(p.a, p.b, p.x0, mo);

  auto expect_same = [&](const Vector& x, const std::vector<index_t>& iters,
                         double final_rel, const NormTrace& norms,
                         const char* what) {
    SCOPED_TRACE(what);
    EXPECT_EQ(iters, blocked.iterations_per_thread);
    EXPECT_TRUE(norms == blocked_norms) << "racy norms differ";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(final_rel),
              std::bit_cast<std::uint64_t>(blocked.final_rel_residual_1));
    ASSERT_EQ(x.size(), blocked.x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(x[i]),
                std::bit_cast<std::uint64_t>(blocked.x[i]))
          << "x[" << i << "]";
    }
  };
  for (const runtime::KernelKind kernel :
       {runtime::KernelKind::kReference, runtime::KernelKind::kSellCS}) {
    so.kernel = kernel;
    const runtime::SharedResult r = solve_shared(p.a, p.b, p.x0, so);
    expect_same(r.x, r.iterations_per_thread, r.final_rel_residual_1,
                norm_trace(r.history),
                kernel == runtime::KernelKind::kReference ? "kReference"
                                                          : "kSellCS");
  }
  expect_same(mesh_run.x, mesh_run.iterations_per_agent,
              mesh_run.final_rel_residual_1, norm_trace(mesh_run.history),
              "solve_mesh");
}

}  // namespace
}  // namespace ajac
