#pragma once
// Concurrent message-passing mesh runtime: one std::thread per agent, each
// owning an arbitrary (possibly overlapping, non-contiguous) row set, with
// boundary values exchanged through real per-edge SPSC queues — the
// repo's closest analogue of the paper's distributed experiments and of
// LLNL Skywing's pub/sub mesh, next to which src/distsim is a
// discrete-event *model* of the same protocol.
//
// Correctness contracts (enforced by tests/mesh/):
//   - synchronous mode (3-barrier lockstep mirroring solve_shared's
//     schedule) is BITWISE identical to solve_shared on disjoint
//     contiguous row sets;
//   - a 1-agent asynchronous mesh is bitwise sequential Jacobi;
//   - recorded traces (disjoint sets only) replay through the Phi(l)
//     propagation model (model::replay_trace);
//   - FaultPlan decisions are interleaving-independent (FaultClock keyed
//     on logical coordinates, park-at-cap identical to solve_shared).
//
// Termination is the shared runtime's runtime::Terminator: agents publish
// their committed values to an untraced SharedVector "board" (control
// plane only — relaxations never read it) and the 1-norm of their staged
// residuals as partial norms, raise per-agent flags on the summed
// partials, and a stop latches only after a verification round in which
// every agent adds the fresh residual norm of its counted rows, read from
// the x board. Solution data still flows agent-to-agent
// exclusively through the queues; the board exists so the mesh stops
// exactly when solve_shared would, which is what makes the
// cross-validation contracts above exact. (A fully distributed
// termination protocol is out of the paper's scope; see DESIGN.md §5g.)

#include <memory>
#include <optional>
#include <vector>

#include "ajac/fault/fault_plan.hpp"
#include "ajac/mesh/row_sets.hpp"
#include "ajac/model/trace.hpp"
#include "ajac/sparse/types.hpp"

namespace ajac {
class CsrMatrix;
}
namespace ajac::obs {
class MetricsRegistry;
}

namespace ajac::mesh {

/// One racy residual-norm observation, as one agent saw it (same caveats
/// as the shared runtime's history: the serial final_rel_residual_1 is
/// the trustworthy number).
struct MeshHistoryPoint {
  double seconds = 0.0;
  index_t agent = 0;
  index_t iteration = 0;
  double rel_residual_1 = 0.0;
};

struct MeshOptions {
  index_t num_agents = 4;
  /// Lockstep 3-barrier schedule (bitwise solve_shared) instead of the
  /// free-running asynchronous mesh.
  bool synchronous = false;
  /// On the relative 1-norm; <= 0 runs to the cap; NaN is rejected.
  double tolerance = 1e-3;
  index_t max_iterations = 10000;
  /// Row ownership; defaults to contiguous_row_sets(n, num_agents).
  std::optional<RowSets> row_sets;
  /// Packets in flight per directed edge before drop-newest backpressure.
  index_t queue_capacity = 256;
  bool record_history = true;
  /// Record a model::RelaxationTrace (disjoint row sets only: per-row
  /// commit versions need a unique writer).
  bool record_trace = false;
  /// sched_yield after an iteration (oversubscribed runs): asynchronously
  /// only while this agent is ahead of the slowest, solve_shared's rule
  /// (DESIGN.md §2f); in lockstep after every iteration.
  bool yield = false;
  /// Serial cleanup sweeps when the verified stop still left the residual
  /// above tolerance (same bounded polish as solve_shared).
  bool final_polish = true;
  /// Deterministic fault injection (asynchronous mode only): stragglers,
  /// stale windows, crash-and-recover, and per-edge message drop /
  /// duplicate applied to the real queues. Reordering and bit flips are
  /// rejected — the former is meaningless on FIFO SPSC rings, the latter
  /// is a shared-runtime instrument.
  std::shared_ptr<const fault::FaultPlan> fault_plan;
  /// Observability sink; one actor slot per agent ("agent" actor kind).
  obs::MetricsRegistry* metrics = nullptr;
};

struct MeshResult {
  Vector x;
  double seconds = 0.0;
  bool converged = false;
  double final_rel_residual_1 = 0.0;
  index_t total_relaxations = 0;
  index_t polish_sweeps = 0;
  std::vector<index_t> iterations_per_agent;
  std::vector<MeshHistoryPoint> history;
  /// Queue traffic totals, summed over agents. `messages_dropped` counts
  /// fault-injected drops; `queue_full_drops` counts drop-newest
  /// backpressure (full ring), which is NOT a fault event and consumes no
  /// FaultClock decision, so fault logs stay interleaving-independent.
  index_t messages_sent = 0;
  index_t messages_received = 0;
  index_t messages_dropped = 0;
  index_t messages_duplicated = 0;
  index_t queue_full_drops = 0;
  std::optional<model::RelaxationTrace> trace;
  fault::FaultLog fault_events;  ///< canonicalized (fault::canonicalize)
};

/// Solve A x = b from x0 on the concurrent mesh. Throws std::logic_error
/// on malformed row sets and AJAC_CHECK-fails on option misuse.
[[nodiscard]] MeshResult solve_mesh(const CsrMatrix& a, const Vector& b,
                                    const Vector& x0,
                                    const MeshOptions& opts = {});

}  // namespace ajac::mesh
