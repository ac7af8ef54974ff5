// Cross-runtime equivalence suite for the concurrent mesh (src/mesh).
//
// The mesh's correctness story is differential: it must agree with the
// runtimes whose behavior is already pinned down whenever their schedules
// coincide, and bracket them when they do not.
//
//   - Synchronous mode runs solve_shared's 3-barrier lockstep over real
//     queues, so on disjoint contiguous row sets it must be BITWISE
//     identical to solve_shared — same x, same per-actor iteration
//     counts, same stop decision — on all three matrix families (FD
//     5-point, FD 7-point, unstructured FE). Comparisons are on raw bit
//     patterns, so -0.0/+0.0 or NaN drift would also fail.
//   - A 1-agent asynchronous mesh has nobody to message: it must be the
//     sequential Jacobi iteration to the last ULP.
//   - Synchronous traces are fully propagated by construction, so
//     model::replay_trace must reproduce the recorded execution bitwise.
//   - Overlapping and non-contiguous ownership change the schedule, not
//     the fixed point: those runs must still converge, to the same
//     solution within a tolerance-derived bound.
//   - Asynchronously the mesh runs real threads, so iteration counts are
//     nondeterministic — but they must bracket the discrete-event
//     simulator's prediction within a generous factor.

#include "ajac/mesh/mesh_jacobi.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "ajac/distsim/dist_jacobi.hpp"
#include "ajac/gen/fd.hpp"
#include "ajac/gen/fe.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/mesh/row_sets.hpp"
#include "ajac/model/executor.hpp"
#include "ajac/model/trace.hpp"
#include "ajac/obs/metrics.hpp"
#include "ajac/partition/partition.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "ajac/sparse/csr.hpp"
#include "test_helpers.hpp"

namespace ajac::mesh {
namespace {

struct NamedMatrix {
  const char* name;
  CsrMatrix a;
};

/// Same three families as the kernel-equivalence suite: FD 5-point and
/// 7-point stencils plus the unstructured FE matrix.
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

void expect_bitwise_equal(const Vector& mesh, const Vector& oracle) {
  ASSERT_EQ(mesh.size(), oracle.size());
  for (std::size_t i = 0; i < mesh.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(mesh[i]),
              std::bit_cast<std::uint64_t>(oracle[i]))
        << "x[" << i << "] mesh " << mesh[i] << " vs oracle " << oracle[i];
  }
}

double max_abs_diff(const Vector& a, const Vector& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc = std::max(acc, std::abs(a[i] - b[i]));
  }
  return acc;
}

// --- synchronous mode is bitwise solve_shared -----------------------------

TEST(MeshEquiv, SynchronousBitwiseMatchesSolveShared) {
  for (const NamedMatrix& m : test_matrices()) {
    const auto p =
        gen::make_problem(m.name, m.a, testing::test_seed(/*salt=*/11));
    for (index_t agents : {1, 2, 3, 4, 7}) {
      SCOPED_TRACE(::testing::Message()
                   << m.name << " agents=" << agents << " seed "
                   << testing::test_seed(11));
      runtime::SharedOptions so;
      so.num_threads = agents;
      so.synchronous = true;
      so.tolerance = 1e-8;
      so.max_iterations = 4000;
      so.record_history = false;
      so.kernel = runtime::KernelKind::kReference;
      const auto shared = runtime::solve_shared(p.a, p.b, p.x0, so);

      MeshOptions mo;
      mo.num_agents = agents;
      mo.synchronous = true;
      mo.tolerance = 1e-8;
      mo.max_iterations = 4000;
      mo.record_history = false;
      const auto mesh = solve_mesh(p.a, p.b, p.x0, mo);

      expect_bitwise_equal(mesh.x, shared.x);
      EXPECT_EQ(mesh.converged, shared.converged);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(mesh.final_rel_residual_1),
                std::bit_cast<std::uint64_t>(shared.final_rel_residual_1));
      EXPECT_EQ(mesh.total_relaxations, shared.total_relaxations);
      EXPECT_EQ(mesh.polish_sweeps, shared.polish_sweeps);
      ASSERT_EQ(mesh.iterations_per_agent.size(),
                shared.iterations_per_thread.size());
      for (std::size_t t = 0; t < mesh.iterations_per_agent.size(); ++t) {
        EXPECT_EQ(mesh.iterations_per_agent[t],
                  shared.iterations_per_thread[t]);
      }
    }
  }
}

// The blocked kernels are themselves bitwise-equivalent to the reference
// path in synchronous mode, so the mesh must transitively match the
// repo's default shared configuration too.
TEST(MeshEquiv, SynchronousBitwiseMatchesBlockedKernels) {
  const auto p = gen::make_problem("fd16", gen::fd_laplacian_2d(16, 16),
                                   testing::test_seed(/*salt=*/12));
  runtime::SharedOptions so;
  so.num_threads = 4;
  so.synchronous = true;
  so.tolerance = 1e-8;
  so.max_iterations = 4000;
  so.record_history = false;
  so.kernel = runtime::KernelKind::kBlocked;
  const auto shared = runtime::solve_shared(p.a, p.b, p.x0, so);

  MeshOptions mo;
  mo.num_agents = 4;
  mo.synchronous = true;
  mo.tolerance = 1e-8;
  mo.max_iterations = 4000;
  mo.record_history = false;
  const auto mesh = solve_mesh(p.a, p.b, p.x0, mo);

  expect_bitwise_equal(mesh.x, shared.x);
  EXPECT_EQ(mesh.converged, shared.converged);
}

// The metrics recorder only observes: a synchronous mesh solve with a
// registry attached is bitwise the solve without one.
TEST(MeshEquiv, MetricsRegistryDoesNotPerturbSynchronousSolve) {
  const auto p = gen::make_problem("fd12", gen::fd_laplacian_2d(12, 12),
                                   testing::test_seed(/*salt=*/14));
  MeshOptions mo;
  mo.num_agents = 4;
  mo.synchronous = true;
  mo.tolerance = 1e-8;
  mo.max_iterations = 4000;
  mo.record_history = false;
  const auto plain = solve_mesh(p.a, p.b, p.x0, mo);

  obs::MetricsRegistry reg;
  mo.metrics = &reg;
  const auto observed = solve_mesh(p.a, p.b, p.x0, mo);

  expect_bitwise_equal(observed.x, plain.x);
  EXPECT_EQ(observed.iterations_per_agent, plain.iterations_per_agent);
  EXPECT_EQ(observed.total_relaxations, plain.total_relaxations);
  // The registry did record the run it observed.
  EXPECT_EQ(reg.snapshot().totals[static_cast<std::size_t>(
                obs::Counter::kRelaxations)],
            static_cast<std::uint64_t>(plain.total_relaxations));
}

// Fixed-iteration synchronous runs (tolerance 0) must also agree: this
// pins the park-at-cap/stop plumbing, not just the tolerance path.
TEST(MeshEquiv, SynchronousFixedIterationsBitwise) {
  const auto p = gen::make_problem("fd12", gen::fd_laplacian_2d(12, 12),
                                   testing::test_seed(/*salt=*/13));
  runtime::SharedOptions so;
  so.num_threads = 3;
  so.synchronous = true;
  so.tolerance = 0.0;
  so.max_iterations = 25;
  so.record_history = false;
  so.kernel = runtime::KernelKind::kReference;
  const auto shared = runtime::solve_shared(p.a, p.b, p.x0, so);

  MeshOptions mo;
  mo.num_agents = 3;
  mo.synchronous = true;
  mo.tolerance = 0.0;
  mo.max_iterations = 25;
  mo.record_history = false;
  const auto mesh = solve_mesh(p.a, p.b, p.x0, mo);

  expect_bitwise_equal(mesh.x, shared.x);
  for (index_t it : mesh.iterations_per_agent) EXPECT_EQ(it, 25);
}

// --- a 1-agent asynchronous mesh is sequential Jacobi ---------------------

TEST(MeshEquiv, OneAgentAsyncIsSequentialJacobiZeroUlp) {
  for (const NamedMatrix& m : test_matrices()) {
    const auto p =
        gen::make_problem(m.name, m.a, testing::test_seed(/*salt=*/14));
    SCOPED_TRACE(::testing::Message()
                 << m.name << " seed " << testing::test_seed(14));
    runtime::SharedOptions so;
    so.num_threads = 1;
    so.synchronous = false;
    so.tolerance = 0.0;
    so.max_iterations = 40;
    so.record_history = false;
    so.final_polish = false;
    so.kernel = runtime::KernelKind::kReference;
    const auto shared = runtime::solve_shared(p.a, p.b, p.x0, so);

    MeshOptions mo;
    mo.num_agents = 1;
    mo.synchronous = false;
    mo.tolerance = 0.0;
    mo.max_iterations = 40;
    mo.record_history = false;
    mo.final_polish = false;
    const auto mesh = solve_mesh(p.a, p.b, p.x0, mo);

    expect_bitwise_equal(mesh.x, shared.x);
    EXPECT_EQ(mesh.messages_sent, 0);
    EXPECT_EQ(mesh.messages_received, 0);
  }
}

// --- recorded synchronous traces replay through the Phi(l) model ----------

TEST(MeshEquiv, SynchronousTraceReplaysBitwise) {
  const auto p = gen::make_problem("fd16", gen::fd_laplacian_2d(16, 16),
                                   testing::test_seed(/*salt=*/15));
  MeshOptions mo;
  mo.num_agents = 4;
  mo.synchronous = true;
  mo.tolerance = 0.0;
  mo.max_iterations = 12;
  mo.record_history = false;
  mo.record_trace = true;
  mo.final_polish = false;
  const auto mesh = solve_mesh(p.a, p.b, p.x0, mo);
  ASSERT_TRUE(mesh.trace.has_value());

  const auto analysis = model::analyze_trace(*mesh.trace);
  // Lockstep: every relaxation reads exactly the pre-step state, so the
  // whole trace is propagated and collapses to max_iterations steps.
  EXPECT_EQ(analysis.orphaned, 0);
  EXPECT_DOUBLE_EQ(analysis.fraction, 1.0);
  EXPECT_EQ(analysis.parallel_steps, 12);
  EXPECT_EQ(analysis.total_relaxations, 12 * p.a.num_rows());

  model::ExecutorOptions eo;
  eo.tolerance = 0.0;
  const auto replay = model::replay_trace(p.a, p.b, p.x0, *mesh.trace, eo);
#ifdef NDEBUG
  expect_bitwise_equal(mesh.x, replay.result.x);
#else
  for (std::size_t i = 0; i < mesh.x.size(); ++i) {
    EXPECT_NEAR(mesh.x[i], replay.result.x[i],
                1e-14 * (1.0 + std::abs(mesh.x[i])));
  }
#endif
}

// An asynchronous traced run is not bitwise-replayable in general (stale
// reads make the model see newer values), but the trace must still be
// structurally sound: analyzable with nothing orphaned.
TEST(MeshEquiv, AsyncTraceIsAnalyzable) {
  const auto p = gen::make_problem("fd12", gen::fd_laplacian_2d(12, 12),
                                   testing::test_seed(/*salt=*/16));
  MeshOptions mo;
  mo.num_agents = 4;
  mo.synchronous = false;
  mo.tolerance = 0.0;
  mo.max_iterations = 10;
  mo.record_history = false;
  mo.record_trace = true;
  mo.final_polish = false;
  mo.yield = true;
  const auto mesh = solve_mesh(p.a, p.b, p.x0, mo);
  ASSERT_TRUE(mesh.trace.has_value());
  const auto analysis = model::analyze_trace(*mesh.trace);
  EXPECT_EQ(analysis.orphaned, 0);
  EXPECT_EQ(analysis.total_relaxations, 10 * p.a.num_rows());
  EXPECT_GT(analysis.fraction, 0.0);
}

// --- ownership shapes: overlap and non-contiguity -------------------------

RowSets overlapping_sets(index_t num_rows, index_t num_agents,
                         index_t overlap) {
  RowSets base = contiguous_row_sets(num_rows, num_agents);
  RowSets out;
  out.owned.resize(base.owned.size());
  for (std::size_t t = 0; t < base.owned.size(); ++t) {
    std::vector<index_t>& rows = out.owned[t];
    rows = base.owned[t];
    // Extend `overlap` rows into each neighboring block.
    const index_t lo = rows.front();
    const index_t hi = rows.back();
    for (index_t k = 1; k <= overlap; ++k) {
      if (lo - k >= 0) rows.insert(rows.begin(), lo - k);
      if (hi + k < num_rows) rows.push_back(hi + k);
    }
  }
  return out;
}

TEST(MeshEquiv, OverlappingOwnershipMatchesDisjointSolve) {
  const auto p = gen::make_problem("fd16", gen::fd_laplacian_2d(16, 16),
                                   testing::test_seed(/*salt=*/17));
  const double tol = 1e-10;

  MeshOptions disjoint_opts;
  disjoint_opts.num_agents = 4;
  disjoint_opts.synchronous = true;
  disjoint_opts.tolerance = tol;
  disjoint_opts.max_iterations = 20000;
  disjoint_opts.record_history = false;
  const auto disjoint_run = solve_mesh(p.a, p.b, p.x0, disjoint_opts);
  ASSERT_TRUE(disjoint_run.converged);

  for (const bool synchronous : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "synchronous=" << synchronous);
    MeshOptions mo;
    mo.num_agents = 4;
    mo.synchronous = synchronous;
    mo.tolerance = tol;
    mo.max_iterations = 20000;
    mo.record_history = false;
    // Real threads on a possibly oversubscribed test host: yield turns
    // the scheduler's long time slices into fine-grained round-robin, so
    // ghost updates propagate every iteration instead of once per
    // preemption (same knob as the shared runtime's trace experiments).
    mo.yield = !synchronous;
    mo.row_sets = overlapping_sets(p.a.num_rows(), 4, /*overlap=*/3);
    const auto overlap_run = solve_mesh(p.a, p.b, p.x0, mo);
    EXPECT_TRUE(overlap_run.converged);
    EXPECT_LE(overlap_run.final_rel_residual_1, tol);
    // Both runs stop at a verified residual <= tol; for this
    // well-conditioned matrix the iterates then agree far tighter than
    // the residual bound requires.
    EXPECT_LE(max_abs_diff(overlap_run.x, disjoint_run.x), 1e-6);
  }
}

TEST(MeshEquiv, NonContiguousRoundRobinOwnershipConverges) {
  const auto p = gen::make_problem("fd12", gen::fd_laplacian_2d(12, 12),
                                   testing::test_seed(/*salt=*/18));
  const index_t n = p.a.num_rows();
  RowSets rr;
  rr.owned.resize(4);
  for (index_t i = 0; i < n; ++i) {
    rr.owned[static_cast<std::size_t>(i % 4)].push_back(i);
  }
  for (const bool synchronous : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "synchronous=" << synchronous);
    MeshOptions mo;
    mo.num_agents = 4;
    mo.synchronous = synchronous;
    mo.tolerance = 1e-8;
    mo.max_iterations = 20000;
    mo.record_history = false;
    mo.yield = !synchronous;  // oversubscription-safe, see overlap test
    mo.row_sets = rr;
    const auto run = solve_mesh(p.a, p.b, p.x0, mo);
    EXPECT_TRUE(run.converged);
    EXPECT_LE(run.final_rel_residual_1, 1e-8);
    EXPECT_LE(testing::apply_diff_inf(p.a, run.x, p.b), 1e-6);
  }
}

// --- the asynchronous mesh brackets the simulator's prediction ------------

// The simulator predicts how many local iterations asynchronous Jacobi
// needs on this partition; the real mesh runs the same protocol on real
// threads. Scheduling noise moves the count, but not by orders of
// magnitude: the mesh must converge within a generous factor of the
// prediction (wider under ThreadSanitizer, whose serialization skews
// schedules heavily). tools/check_mesh_convergence.py gates the same
// invariant on the benchmark fleet with a tighter documented factor.
TEST(MeshEquiv, AsyncIterationsBracketDistsimPrediction) {
#if defined(__SANITIZE_THREAD__)
  const double factor = 16.0;
#else
  const double factor = 6.0;
#endif
  const auto p = gen::make_problem("fd24", gen::fd_laplacian_2d(24, 24),
                                   testing::test_seed(/*salt=*/19));
  const index_t agents = 4;
  const double tol = 1e-8;

  distsim::DistOptions dopts;
  dopts.num_processes = agents;
  dopts.synchronous = false;
  dopts.tolerance = tol;
  dopts.max_iterations = 100000;
  const auto part = partition::contiguous_partition(p.a.num_rows(), agents);
  const auto dist = distsim::solve_distributed(p.a, p.b, p.x0, part, dopts);
  ASSERT_TRUE(dist.reached_tolerance);
  index_t dist_iters = 0;
  for (index_t it : dist.iterations_per_process) {
    dist_iters = std::max(dist_iters, it);
  }
  ASSERT_GT(dist_iters, 0);

  MeshOptions mo;
  mo.num_agents = agents;
  mo.synchronous = false;
  mo.tolerance = tol;
  mo.max_iterations =
      static_cast<index_t>(factor * static_cast<double>(dist_iters)) + 100;
  mo.record_history = false;
  // Fine-grained round-robin on oversubscribed hosts: without it a
  // 1-core machine lets each agent burn a whole scheduling quantum on
  // frozen ghosts and the iteration count measures the OS, not Jacobi.
  mo.yield = true;
  const auto mesh = solve_mesh(p.a, p.b, p.x0, mo);
  EXPECT_TRUE(mesh.converged);
  EXPECT_LE(mesh.final_rel_residual_1, tol);
  index_t mesh_iters = 0;
  for (index_t it : mesh.iterations_per_agent) {
    mesh_iters = std::max(mesh_iters, it);
  }
  EXPECT_LE(static_cast<double>(mesh_iters),
            factor * static_cast<double>(dist_iters))
      << "mesh " << mesh_iters << " vs distsim " << dist_iters;
}

// History points carry agent-local racy observations; the serial final
// residual is the trustworthy number and must be consistent with them.
TEST(MeshEquiv, HistoryIsTimeOrderedAndConsistent) {
  const auto p = gen::make_problem("fd12", gen::fd_laplacian_2d(12, 12),
                                   testing::test_seed(/*salt=*/20));
  MeshOptions mo;
  mo.num_agents = 3;
  mo.synchronous = false;
  mo.tolerance = 1e-8;
  mo.max_iterations = 20000;
  mo.record_history = true;
  mo.yield = true;  // oversubscription-safe, see overlap test
  const auto run = solve_mesh(p.a, p.b, p.x0, mo);
  ASSERT_TRUE(run.converged);
  ASSERT_FALSE(run.history.empty());
  for (std::size_t k = 1; k < run.history.size(); ++k) {
    EXPECT_LE(run.history[k - 1].seconds, run.history[k].seconds);
  }
  for (const MeshHistoryPoint& pt : run.history) {
    EXPECT_GE(pt.agent, 0);
    EXPECT_LT(pt.agent, 3);
    EXPECT_GE(pt.rel_residual_1, 0.0);
    EXPECT_TRUE(std::isfinite(pt.rel_residual_1));
  }
}

TEST(MeshOptions, NanToleranceIsRejected) {
  // rel <= NaN never holds: without the check the agents would silently
  // run to max_iterations and report converged = false.
  const auto p = gen::make_problem("fd4", gen::fd_laplacian_2d(4, 4),
                                   testing::test_seed(/*salt=*/21));
  MeshOptions mo;
  mo.num_agents = 2;
  mo.tolerance = std::numeric_limits<double>::quiet_NaN();
  try {
    (void)solve_mesh(p.a, p.b, p.x0, mo);
    ADD_FAILURE() << "NaN tolerance was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("tolerance is NaN"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace ajac::mesh
