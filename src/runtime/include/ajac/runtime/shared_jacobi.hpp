#pragma once
// Shared-memory synchronous/asynchronous Jacobi (paper Sec. V).
//
// Each OpenMP thread owns a contiguous block of rows and repeats
//   1. compute the residual r = b - A x on its rows (reading shared x)
//      into thread-private storage and publish its 1-norm (the partial),
//   2. correct x = x + D^{-1} r on its rows,
//   3. check convergence,
// with barriers after 1 and 3 in the synchronous variant and no barriers
// in the asynchronous one. x is the only shared array: a SharedVector of
// plain doubles read and written through relaxed std::atomic_ref — the
// C++-legal form of the paper's "writing or reading an aligned double is
// atomic on modern Intel processors". On the blocked Jacobi path a thread
// relaxes from a private mirror of its rows and publishes to x only the
// rows other blocks read (DESIGN.md §2b). Termination is the paper's flag
// array hardened by runtime::Terminator: a thread raises its flag when the
// racy norm (the threads' published partial norms, summed) meets the
// tolerance, all flags up opens a verification round in which every thread
// adds the fresh residual norm of its own rows, and the solve stops only
// when a completed round meets the tolerance or every thread is at the
// cap (DESIGN.md §2e).
//
// An optional trace mode records, for every relaxation, the version of
// each off-diagonal value it read (a seqlock pairs values with write
// counters), feeding the propagation-matrix analysis of Sec. IV-A/Fig. 2.

#include <memory>
#include <optional>
#include <vector>

#include "ajac/fault/fault_plan.hpp"
#include "ajac/model/trace.hpp"
#include "ajac/partition/partition.hpp"
#include "ajac/runtime/row_policy.hpp"
#include "ajac/solvers/common.hpp"
#include "ajac/sparse/multi_vector.hpp"
#include "ajac/sparse/types.hpp"

namespace ajac {
class CsrMatrix;
}

namespace ajac::obs {
class MetricsRegistry;
class TelemetryHub;
}

namespace ajac::runtime {

/// Which relaxation kernels the solve dispatches to.
enum class KernelKind {
  /// Unsplit CSR rows, every column read through the SharedVector — the
  /// paper's scheme verbatim; kept as the differential-testing oracle.
  kReference,
  /// Partition-aware local/ghost split (sparse/blocked_csr.hpp): own-block
  /// columns come from a thread-private mirror, interior rows skip the
  /// shared vector entirely, only boundary-row ghost columns pay for
  /// synchronized reads. Bitwise-equivalent to kReference whenever the two
  /// would read the same values (num_threads=1, synchronous mode).
  kBlocked,
  /// Bandwidth-engineered large-n path (runtime/sell_kernels.hpp): interior
  /// rows relax through a SELL-C-sigma repack with int32 local column
  /// offsets and software prefetch (sparse/sell_csr.hpp), and boundary
  /// rows gather their ghost columns from a dense per-thread buffer
  /// refreshed once per local iteration instead of per-entry shared reads.
  /// Bitwise-equivalent to kBlocked whenever the reads see the same values
  /// (num_threads=1, or synchronous mode). Not composable with
  /// record_trace, local_gauss_seidel, sampled row policies or fault plans
  /// other than stragglers (checked).
  kSellCS,
};

struct SharedOptions {
  index_t num_threads = 4;
  bool synchronous = false;
  /// Stop when ||r||_1 / ||r(0)||_1 <= tolerance. <= 0 disables the
  /// residual criterion (pure iteration-count runs, Fig. 5(b)); NaN is
  /// rejected.
  double tolerance = 1e-3;
  /// Per-thread local iteration cap; a thread raises its flag at this
  /// count even if the tolerance is not met.
  index_t max_iterations = 10000;
  /// Record (wall time, residual norm) history points.
  bool record_history = true;
  /// Record read-version traces for the propagation analysis. Adds seqlock
  /// overhead; intended for the small Fig. 2 matrices.
  bool record_trace = false;
  /// Relax each owned row in place (one forward Gauss-Seidel pass over the
  /// block per iteration) instead of the paper's compute-then-commit
  /// Jacobi step. Asynchronous mode only: with barriers the in-place
  /// variant would race with neighbors' reads non-deterministically.
  bool local_gauss_seidel = false;
  /// Rows per thread come from this partition; by default rows are split
  /// into equal contiguous blocks.
  std::optional<partition::Partition> partition;
  /// Yield the CPU after every local iteration (asynchronous mode: every
  /// iteration that ends ahead of the slowest thread's count). On machines
  /// with fewer cores than threads this turns the OS scheduler's long time
  /// slices into a fine-grained round-robin, much closer to truly
  /// concurrent execution; used by the trace experiments (Fig. 2).
  bool yield = false;
  /// On heavily oversubscribed machines a thread descheduled mid-iteration
  /// can commit a very stale update after the stop decision, leaving the
  /// final state slightly above tolerance (asynchronous termination
  /// detection is an open problem — Sec. VI). With final_polish the solver
  /// runs sequential Jacobi sweeps after the parallel phase until the
  /// tolerance verifiably holds; the sweep count is reported in
  /// SharedResult::polish_sweeps (0 on genuinely parallel hardware).
  bool final_polish = true;
  /// Fault-injection plan (see ajac/fault/fault_plan.hpp). Null or empty
  /// keeps the zero-fault path branch-free: the solve dispatches to a
  /// template instantiation whose injection hooks compile to no-ops.
  /// A plan of stragglers only is accepted in either mode and on every
  /// kernel: a duty-1 StragglerSpec is the paper's artificially slowed
  /// thread (Sec. VII-B), and it moves no bit of a synchronous solve.
  /// Every other fault kind needs asynchronous mode and kBlocked or
  /// kReference. Message faults are rejected: threads exchange no
  /// messages (fault::require_honoured).
  std::shared_ptr<const fault::FaultPlan> fault_plan;
  /// Observability sink (see ajac/obs/metrics.hpp): per-thread relaxation
  /// counts and rates, seqlock retry counts, a read-staleness histogram
  /// (record_trace runs — staleness needs the seqlock versions), residual-
  /// check and spin-wait time, and a timeline of iteration spans /
  /// flag-raise / fault instants exportable via obs::TraceEventSink. The
  /// registry is reset for num_threads actors on entry; snapshot it after
  /// the solve returns. Null turns every recording hook into an early
  /// return (no timer read, no slot write): one predictable branch per
  /// iteration, and results bitwise those of an instrumented solve.
  obs::MetricsRegistry* metrics = nullptr;
  /// Live telemetry hub (see ajac/obs/stream.hpp): each thread publishes
  /// coarse progress beacons (iteration, own-block residual, relaxation
  /// and policy-draw counts) into its own lock-free ring every
  /// `beacon_stride`-th iteration, for a ConvergenceMonitor to consume
  /// concurrently. Null turns every publish hook into an early return, so
  /// results are bitwise those of a streaming solve. The hub must outlive
  /// the solve and be sized for num_threads actors
  /// (TelemetryOptions::max_actors).
  obs::TelemetryHub* stream = nullptr;
  /// Relaxation kernels (see KernelKind). The blocked layer is the default;
  /// kReference selects the original unsplit path (differential testing,
  /// perf baselines).
  KernelKind kernel = KernelKind::kBlocked;
  /// Row-selection policy (see ajac/runtime/row_policy.hpp). The default
  /// natural-order sweep is the paper's schedule and leaves the solve
  /// bitwise identical to a build without the policy layer. Sampled
  /// policies draw block-size rows per local iteration and relax them in
  /// place; asynchronous mode only (with barriers, a sampled schedule has
  /// no natural synchronous meaning), and exclusive with
  /// local_gauss_seidel (sampling *is* the in-place schedule).
  RowPolicy policy = RowPolicy::kNaturalOrder;
  /// Seed of the policy draw streams. PolicyClock salts it, so the same
  /// value may safely seed the fault plan: policy draws never perturb
  /// fault decisions and vice versa.
  std::uint64_t policy_seed = 0x5eedfa17ULL;
};

struct SharedHistoryPoint {
  double seconds = 0.0;        ///< wall-clock since solve start
  index_t thread = 0;
  index_t local_iteration = 0;
  double rel_residual_1 = 0.0;  ///< as seen by that thread (racy read)
};

struct SharedResult {
  Vector x;
  double seconds = 0.0;                 ///< total wall-clock
  bool converged = false;               ///< final serial check vs tolerance
  double final_rel_residual_1 = 0.0;    ///< computed serially after the run
  index_t total_relaxations = 0;
  index_t polish_sweeps = 0;  ///< sequential cleanup sweeps (see final_polish)
  std::vector<index_t> iterations_per_thread;
  std::vector<SharedHistoryPoint> history;  ///< merged, time-ordered
  std::optional<model::RelaxationTrace> trace;
  /// Everything the fault plan injected, in canonical order (empty
  /// without a plan). Carries logical coordinates only, so two runs of
  /// the same plan compare bitwise.
  fault::FaultLog fault_events;
};

/// Run shared-memory Jacobi (synchronous or asynchronous per options).
[[nodiscard]] SharedResult solve_shared(const CsrMatrix& a, const Vector& b,
                                        const Vector& x0,
                                        const SharedOptions& opts);

/// Result of a multi-RHS shared-memory solve: each column's SharedResult
/// fields, one entry per column.
struct SharedBatchResult {
  MultiVector x;                      ///< n x k solution batch
  double seconds = 0.0;               ///< summed over the column solves
  std::vector<bool> converged;        ///< per column, final serial check
  Vector final_rel_residual_1;        ///< per column, computed serially
  /// Per column: the solve's max local iteration count (the verified-stop
  /// or cap iteration, as ajac::solve reports `iterations`).
  std::vector<index_t> stop_iteration;
  std::vector<index_t> polish_sweeps;   ///< per column (see final_polish)
  /// Per column: the solve's total_relaxations.
  std::vector<index_t> relaxations_per_column;
  index_t total_relaxations = 0;      ///< sum of relaxations_per_column
  /// Per thread, local iterations summed over the column solves.
  std::vector<index_t> iterations_per_thread;
  /// The column solves' injected faults, in canonical order (empty without
  /// a plan). Every column runs the same plan, so its decisions repeat per
  /// column at the same (seed, thread, iteration, row) coordinates.
  fault::FaultLog fault_events;
};

/// Solve A x = b(:,c) from x0(:,c) for each column c of the n x k b and x0:
/// one solve_shared per column, in column order, under `opts`. Column c of
/// the result is the single-RHS solve of column c, so it is bitwise that
/// solve's result wherever solve_shared is deterministic. A fused k-lane
/// driver that shared each matrix traversal across the columns was
/// measured slower per right-hand side than this loop and was removed
/// (DESIGN.md §2c). The metrics registry and telemetry hub see one run per
/// column; after the call the registry holds the last column's.
///
/// Unsupported (checked): record_trace and record_history, for which the
/// result has no field.
[[nodiscard]] SharedBatchResult solve_shared_batch(const CsrMatrix& a,
                                                   const MultiVector& b,
                                                   const MultiVector& x0,
                                                   const SharedOptions& opts);

}  // namespace ajac::runtime
