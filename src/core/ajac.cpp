#include "ajac/core/ajac.hpp"

#include <cmath>
#include <thread>
#include <utility>

#include "ajac/sparse/scaling.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "ajac/util/check.hpp"
#include "ajac/util/timer.hpp"

namespace ajac {

const char* version() { return "1.0.0"; }

Solution solve(const CsrMatrix& a, const Vector& b, const Vector& x0,
               const SolveConfig& config) {
  AJAC_CHECK(a.num_rows() == a.num_cols());
  AJAC_CHECK(config.parallelism >= 1);
  Solution sol;
  switch (config.backend) {
    case Backend::kSequential: {
      solvers::SolveOptions opts;
      opts.tolerance = config.tolerance;
      opts.max_iterations = config.max_iterations;
      WallTimer timer;
      solvers::SolveResult r = solvers::jacobi(a, b, x0, opts);
      sol.seconds = timer.seconds();
      sol.x = std::move(r.x);
      sol.converged = r.converged;
      sol.rel_residual_1 = r.final_rel_residual;
      sol.iterations = r.iterations;
      sol.relaxations = r.iterations * a.num_rows();
      return sol;
    }
    case Backend::kModel: {
      model::ExecutorOptions opts;
      opts.tolerance = config.tolerance;
      opts.max_steps = config.max_iterations;
      WallTimer timer;
      model::ModelResult r = model::run_synchronous(a, b, x0, opts);
      sol.seconds = timer.seconds();
      sol.x = std::move(r.x);
      sol.converged = r.converged;
      sol.rel_residual_1 = r.final_rel_residual_1;
      sol.iterations = r.steps;
      sol.relaxations = r.relaxations;
      return sol;
    }
    case Backend::kSharedMemory: {
      runtime::SharedOptions opts;
      opts.num_threads = config.parallelism;
      opts.synchronous = config.synchronous;
      opts.tolerance = config.tolerance;
      opts.max_iterations = config.max_iterations;
      opts.record_history = false;
      opts.kernel = config.shared_kernel;
      opts.policy = config.policy;
      opts.policy_seed = config.seed;
      opts.stream = config.stream;
      // nnz-balanced blocks for the partition-aware kernels (the facade
      // default). The runtime's own default stays row-balanced, so direct
      // SharedOptions users — and every recorded golden trace — are
      // untouched.
      if (config.balance_by_nnz && config.parallelism > 1 &&
          config.shared_kernel != runtime::KernelKind::kReference) {
        opts.partition =
            partition::nnz_balanced_partition(a, config.parallelism);
      }
      runtime::SharedResult r = runtime::solve_shared(a, b, x0, opts);
      sol.seconds = r.seconds;
      sol.x = std::move(r.x);
      sol.converged = r.converged;
      sol.rel_residual_1 = r.final_rel_residual_1;
      index_t max_iter = 0;
      for (index_t it : r.iterations_per_thread) {
        max_iter = std::max(max_iter, it);
      }
      sol.iterations = max_iter;
      sol.relaxations = r.total_relaxations;
      return sol;
    }
    case Backend::kMesh: {
      mesh::MeshOptions opts;
      opts.num_agents = config.parallelism;
      opts.synchronous = config.synchronous;
      opts.tolerance = config.tolerance;
      opts.max_iterations = config.max_iterations;
      opts.record_history = false;
      // Oversubscribed host: without a per-iteration yield each agent
      // burns its whole scheduling quantum relaxing against frozen ghost
      // values and iteration counts measure the OS scheduler, not the
      // algorithm (DESIGN.md §5g).
      opts.yield = static_cast<unsigned>(config.parallelism) >
                   std::thread::hardware_concurrency();
      mesh::MeshResult r = mesh::solve_mesh(a, b, x0, opts);
      sol.seconds = r.seconds;
      sol.x = std::move(r.x);
      sol.converged = r.converged;
      sol.rel_residual_1 = r.final_rel_residual_1;
      index_t max_iter = 0;
      for (index_t it : r.iterations_per_agent) {
        max_iter = std::max(max_iter, it);
      }
      sol.iterations = max_iter;
      sol.relaxations = r.total_relaxations;
      return sol;
    }
    case Backend::kDistributedSim: {
      distsim::DistOptions opts;
      opts.num_processes = config.parallelism;
      opts.synchronous = config.synchronous;
      opts.max_iterations = config.max_iterations;
      opts.tolerance = config.tolerance;
      opts.seed = config.seed;
      opts.policy = config.policy;
      opts.stream = config.stream;

      const CsrMatrix* matrix = &a;
      const Vector* rhs = &b;
      const Vector* start = &x0;
      CsrMatrix permuted;
      Vector pb;
      Vector px0;
      partition::Partition part;
      partition::PartitionedSystem sys{
          Permutation::identity(a.num_rows()), {}};
      if (config.partition_first && config.parallelism > 1) {
        sys = partition::graph_growing_partition(a, config.parallelism,
                                                 config.seed);
        permuted = sys.perm.apply_symmetric(a);
        pb = sys.perm.apply(b);
        px0 = sys.perm.apply(x0);
        matrix = &permuted;
        rhs = &pb;
        start = &px0;
        part = sys.partition;
      } else {
        part = partition::contiguous_partition(a.num_rows(),
                                               config.parallelism);
      }
      distsim::DistResult r =
          distsim::solve_distributed(*matrix, *rhs, *start, part, opts);
      sol.seconds = r.sim_seconds;
      sol.converged = r.reached_tolerance;
      sol.rel_residual_1 = r.final_rel_residual_1;
      sol.relaxations = r.total_relaxations;
      index_t max_iter = 0;
      for (index_t it : r.iterations_per_process) {
        max_iter = std::max(max_iter, it);
      }
      sol.iterations = max_iter;
      sol.x = (config.partition_first && config.parallelism > 1)
                  ? sys.perm.apply_inverse(r.x)
                  : std::move(r.x);
      return sol;
    }
  }
  AJAC_CHECK_MSG(false, "unknown backend");
  return sol;
}

Solution solve_spd(const CsrMatrix& a, const Vector& b,
                   const SolveConfig& config) {
  Vector scaled_b = b;
  const CsrMatrix scaled = scale_to_unit_diagonal(a, &scaled_b);
  Vector x0(static_cast<std::size_t>(a.num_rows()), 0.0);
  Solution sol = solve(scaled, scaled_b, x0, config);
  // The scaled system solves D^{1/2} x, so map back: x = D^{-1/2} y.
  const Vector d = a.diagonal();
  for (std::size_t i = 0; i < sol.x.size(); ++i) {
    sol.x[i] /= std::sqrt(d[i]);
  }
  return sol;
}

BatchSolution solve_batch(const CsrMatrix& a, const MultiVector& b,
                          const MultiVector& x0, const SolveConfig& config) {
  AJAC_CHECK(a.num_rows() == a.num_cols());
  AJAC_CHECK(config.parallelism >= 1);
  AJAC_CHECK_MSG(config.backend == Backend::kSharedMemory,
                 "batched solves run on the shared-memory backend only");
  AJAC_CHECK_MSG(config.num_rhs == b.num_cols(),
                 "config.num_rhs must equal b.num_cols()");
  runtime::SharedOptions opts;
  opts.num_threads = config.parallelism;
  opts.synchronous = config.synchronous;
  opts.tolerance = config.tolerance;
  opts.max_iterations = config.max_iterations;
  opts.record_history = false;
  opts.kernel = config.shared_kernel;
  opts.policy = config.policy;
  opts.policy_seed = config.seed;
  opts.stream = config.stream;
  // Same facade-level nnz balancing as the single-RHS path.
  if (config.balance_by_nnz && config.parallelism > 1 &&
      config.shared_kernel != runtime::KernelKind::kReference) {
    opts.partition = partition::nnz_balanced_partition(a, config.parallelism);
  }
  runtime::SharedBatchResult r = runtime::solve_shared_batch(a, b, x0, opts);
  BatchSolution sol;
  sol.x = std::move(r.x);
  sol.converged = std::move(r.converged);
  sol.rel_residual_1 = std::move(r.final_rel_residual_1);
  sol.iterations = std::move(r.stop_iteration);
  sol.relaxations = std::move(r.relaxations_per_column);
  sol.seconds = r.seconds;
  return sol;
}

BatchSolution solve_spd_batch(const CsrMatrix& a, const MultiVector& b,
                              const SolveConfig& config) {
  const index_t n = a.num_rows();
  const index_t k = b.num_cols();
  // Checked before the scaling loop reads b.row(i) for every row of A.
  AJAC_CHECK_MSG(b.num_rows() == n, "b has " << b.num_rows()
                                             << " rows but A has " << n);
  // Scale the system once; each RHS column scales by the same D^{-1/2}.
  Vector probe(static_cast<std::size_t>(n), 0.0);
  const CsrMatrix scaled = scale_to_unit_diagonal(a, &probe);
  const Vector d = a.diagonal();
  MultiVector scaled_b(n, k);
  for (index_t i = 0; i < n; ++i) {
    const double s = 1.0 / std::sqrt(d[static_cast<std::size_t>(i)]);
    const double* src = b.row(i);
    double* dst = scaled_b.row(i);
    for (index_t c = 0; c < k; ++c) dst[c] = src[c] * s;
  }
  MultiVector x0(n, k);
  BatchSolution sol = solve_batch(scaled, scaled_b, x0, config);
  // The scaled system solves D^{1/2} x, so map back: x = D^{-1/2} y.
  for (index_t i = 0; i < n; ++i) {
    const double s = 1.0 / std::sqrt(d[static_cast<std::size_t>(i)]);
    double* row = sol.x.row(i);
    for (index_t c = 0; c < k; ++c) row[c] *= s;
  }
  return sol;
}

}  // namespace ajac
