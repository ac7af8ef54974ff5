#pragma once
// Umbrella header and high-level facade for the async-jacobi library.
//
// Layers (each usable on its own):
//   ajac/sparse/*     sparse-matrix substrate (CSR, kernels, I/O)
//   ajac/gen/*        test-matrix generators (FD, FE, Table-I analogues)
//   ajac/partition/*  graph partitioning (METIS stand-in)
//   ajac/eig/*        eigenvalue tooling (power, Lanczos, dense Jacobi)
//   ajac/model/*      propagation-matrix model (the paper's contribution)
//   ajac/solvers/*    sequential stationary baselines
//   ajac/runtime/*    shared-memory async Jacobi (OpenMP)
//   ajac/distsim/*    distributed-memory async Jacobi (discrete-event sim)
//   ajac/mesh/*       concurrent message-passing mesh (std::thread + SPSC)
//
// This header provides one-call entry points for the common cases.

#include <string>

#include "ajac/distsim/dist_jacobi.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/mesh/mesh_jacobi.hpp"
#include "ajac/model/executor.hpp"
#include "ajac/partition/partition.hpp"
#include "ajac/runtime/row_policy.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "ajac/solvers/stationary.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/multi_vector.hpp"

namespace ajac {

/// Library version string.
[[nodiscard]] const char* version();

/// Execution backends for the facade.
enum class Backend {
  kSequential,     ///< reference solver (solvers::jacobi)
  kModel,          ///< propagation-matrix model executor
  kSharedMemory,   ///< OpenMP threads, shared arrays (paper Sec. V)
  kDistributedSim, ///< discrete-event distributed runtime (paper Sec. VI)
  kMesh,           ///< real message-passing agents (std::thread + queues)
};

struct SolveConfig {
  Backend backend = Backend::kSharedMemory;
  bool synchronous = false;   ///< ignored by kSequential (always sync)
  index_t parallelism = 4;    ///< threads / simulated processes
  double tolerance = 1e-6;    ///< relative residual 1-norm
  index_t max_iterations = 10000;
  std::uint64_t seed = 1;
  /// kDistributedSim: reorder with the built-in partitioner first (highly
  /// recommended; mirrors the paper's METIS step).
  bool partition_first = true;
  /// kSharedMemory: relaxation kernel family — the partition-aware blocked
  /// kernels (default), the reference kernels that read every column
  /// through the shared vector, or the bandwidth-engineered kSellCS path
  /// for large problems (SELL-C-sigma interior, dense ghost buffers; see
  /// runtime::KernelKind).
  runtime::KernelKind shared_kernel = runtime::KernelKind::kBlocked;
  /// kSharedMemory, blocked/kSellCS kernels: balance the contiguous row
  /// partition by nonzero count instead of row count (default). On graded
  /// meshes and Matrix Market imports row-balanced blocks can differ 2x+
  /// in nnz, and the slowest block sets the convergence clock. Row
  /// balancing remains available for reproducing older runs; an explicit
  /// runtime partition always wins over this switch. The reference kernel
  /// ignores it (its baselines are defined on row-balanced blocks).
  bool balance_by_nnz = true;
  /// kSharedMemory: number of right-hand sides solve_batch takes (b must
  /// carry exactly num_rhs columns). It solves them one after another,
  /// each column as solve() would.
  index_t num_rhs = 1;
  /// kDistributedSim: row-selection policy for the asynchronous sweep.
  /// kNaturalOrder (default) is the paper's block sweep; kUniformRandom
  /// draws rows from counter-based streams seeded by `seed` (see
  /// runtime::RowPolicy), the schedule of Avron et al.'s rate bound.
  /// Asynchronous mode only. Every other backend, solve_batch included,
  /// rejects a sampled policy: the shared runtime relaxes rows in natural
  /// order, and its in-place schedule is
  /// runtime::SharedOptions::local_gauss_seidel.
  runtime::RowPolicy policy = runtime::RowPolicy::kNaturalOrder;
  /// kSharedMemory / kDistributedSim: live telemetry hub (see
  /// ajac/obs/stream.hpp). nullptr disables streaming; the off path is
  /// bitwise identical to a build without telemetry.
  obs::TelemetryHub* stream = nullptr;
};

struct Solution {
  Vector x;
  bool converged = false;
  double rel_residual_1 = 0.0;
  index_t iterations = 0;      ///< sweeps / max local iterations
  index_t relaxations = 0;     ///< total single-row relaxations
  double seconds = 0.0;        ///< wall-clock (shared) or simulated (dist)
};

/// Solve A x = b starting from x0 on the chosen backend. A must be square
/// with a nonzero diagonal; for the distributed backend A should have a
/// symmetric pattern (ghost exchange assumes it).
[[nodiscard]] Solution solve(const CsrMatrix& a, const Vector& b,
                             const Vector& x0, const SolveConfig& config);

/// Convenience for SPD systems: scales A to unit diagonal, runs the
/// requested backend, and maps the solution back to the original scaling.
[[nodiscard]] Solution solve_spd(const CsrMatrix& a, const Vector& b,
                                 const SolveConfig& config);

/// Batched solve: everything in Solution, one entry per column.
struct BatchSolution {
  MultiVector x;                   ///< n x k solution batch
  std::vector<bool> converged;     ///< per column
  Vector rel_residual_1;           ///< per column
  std::vector<index_t> iterations; ///< per column, as Solution::iterations
  std::vector<index_t> relaxations;  ///< per column, as Solution::relaxations
  double seconds = 0.0;            ///< summed over the columns
};

/// Solve A x(:,c) = b(:,c) for all k columns on the shared-memory backend
/// (config.num_rhs must equal b.num_cols(); other backends have no batched
/// path). Column c is solve(a, b(:,c), x0(:,c), config) on the shared
/// backend: same x, converged, rel_residual_1, iterations and relaxations
/// wherever that solve is deterministic (runtime::solve_shared_batch).
[[nodiscard]] BatchSolution solve_batch(const CsrMatrix& a,
                                        const MultiVector& b,
                                        const MultiVector& x0,
                                        const SolveConfig& config);

/// Batched analogue of solve_spd: scales A to unit diagonal once, solves
/// every column, and maps each column back to the original scaling.
[[nodiscard]] BatchSolution solve_spd_batch(const CsrMatrix& a,
                                            const MultiVector& b,
                                            const SolveConfig& config);

}  // namespace ajac
