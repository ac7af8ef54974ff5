#pragma once
// Distributed-memory Jacobi on the discrete-event simulator (Sec. VI).
//
// Two communication schemes, mirroring the paper's implementations:
//  * synchronous — BSP supersteps. Every iteration exchanges ghost values
//    with point-to-point messages and waits (MPI_Isend/MPI_Recv with an
//    implicit barrier); the iterate sequence is *exactly* sequential
//    Jacobi (tested bitwise).
//  * asynchronous — each process relaxes with whatever ghost values it
//    has and pushes boundary values to its neighbors' memory windows
//    (MPI_Put with passive target completion). Processes advance at their
//    own (noisy) speed; messages arrive after a latency; deliveries are
//    unordered like RMA puts unless ordered_delivery is set.
//
// The simulator runs thousands of ranks deterministically on one core and
// reports residual histories against *simulated* wall-clock time.

#include <memory>
#include <optional>
#include <vector>

#include "ajac/distsim/cost_model.hpp"
#include "ajac/distsim/local_block.hpp"
#include "ajac/fault/fault_plan.hpp"
#include "ajac/model/trace.hpp"
#include "ajac/runtime/row_policy.hpp"
#include "ajac/sparse/types.hpp"

namespace ajac {
class CsrMatrix;
}

namespace ajac::obs {
class MetricsRegistry;
class TelemetryHub;
}

namespace ajac::distsim {

/// When may a process relax? (ablation of Sec. III related work)
enum class UpdateRule {
  kRacy,   ///< always relax with whatever is available (Baudet; the paper)
  kEager,  ///< relax only after receiving at least one new message
           ///< (Jager & Bradley's semi-synchronous scheme)
};

/// Local relaxation applied within a rank's block each iteration.
enum class InnerSweep {
  kJacobi,       ///< the paper's scheme: all owned rows read the same state
  kGaussSeidel,  ///< one forward GS pass within the block (Jager & Bradley's
                 ///< "inexact block Jacobi": blocks solved by one GS sweep)
};

/// How does the asynchronous run decide it is done? The paper terminates
/// on a fixed iteration count and leaves residual-based distributed
/// termination as future work (Sec. VI); kNormReduction implements the
/// natural protocol that future work suggests.
enum class Termination {
  /// Each process stops after max_iterations local iterations (the
  /// paper's scheme). `tolerance`, if set, is additionally checked by an
  /// omniscient observer at snapshot times — free in a simulation,
  /// impossible on a real machine.
  kIterationCountOrOracle,
  /// Realistic distributed protocol: every `detection_interval` local
  /// iterations each rank sends its current local residual contribution
  /// ||r_p||_1 to rank 0 (one small message through the same network
  /// model); rank 0 sums the most recent values it has received (stale,
  /// like everything else in an asynchronous method) and, once the sum
  /// drops below tolerance * ||r(0)||_1, broadcasts a stop message. Ranks
  /// halt when the stop arrives or at max_iterations. The result records
  /// how the claimed residual compares to the true one at that moment.
  kNormReduction,
};

struct DistOptions {
  index_t num_processes = 4;
  bool synchronous = false;
  UpdateRule update_rule = UpdateRule::kRacy;
  InnerSweep inner_sweep = InnerSweep::kJacobi;
  /// Damping factor for the local relaxation (x += omega * D^{-1} r);
  /// omega = 1 is the paper's scheme.
  double omega = 1.0;
  /// Deliver puts from the same sender in send order, dropping stale
  /// overwrites (false = raw RMA semantics where a delayed put can
  /// overwrite a newer value).
  bool ordered_delivery = false;
  /// Issue one put per boundary row, with visibility spread across the
  /// compute window, instead of one put per neighbor at the end of the
  /// sweep. This models shared-memory writes landing row by row: readers
  /// observe partially updated blocks, which makes the effective masks
  /// finer than whole subdomains. Costs ~rows-per-boundary times more
  /// simulated messages.
  bool row_level_puts = false;
  /// Local iterations per process (the paper's termination scheme).
  index_t max_iterations = 200;
  /// If > 0, the simulation also stops once the (god's-eye) relative
  /// residual 1-norm falls below this value; NaN is rejected.
  double tolerance = 0.0;
  /// Residual snapshot interval in simulated seconds; 0 = auto (about one
  /// snapshot per average iteration).
  double snapshot_dt = 0.0;
  /// Extra persistent slowdown factor applied to one process:
  /// delayed_process (-1 = none, else in [0, num_processes)) gets speed
  /// divided by delay_factor (finite, >= 1; 1 = none).
  index_t delayed_process = -1;
  double delay_factor = 1.0;
  /// Row-selection policy for the local sweep (asynchronous mode with the
  /// kJacobi inner sweep only). Sampled policies draw `num_owned` rows per
  /// local iteration from a per-rank counter-based stream — the same
  /// (seed, actor, iteration, slot) coordinate discipline as the shared
  /// runtime — and relax each drawn row in place. kNaturalOrder leaves
  /// the simulator bitwise unchanged.
  runtime::RowPolicy policy = runtime::RowPolicy::kNaturalOrder;
  CostModel cost;
  std::uint64_t seed = 99;
  /// Asynchronous-mode termination scheme (see Termination).
  Termination termination = Termination::kIterationCountOrOracle;
  /// kNormReduction: local iterations between residual reports to rank 0.
  index_t detection_interval = 4;
  /// Record per-relaxation read versions (asynchronous mode only): owned
  /// reads carry the owner's iteration count, ghost reads the sender
  /// iteration of the message that filled the slot. Feeds the
  /// propagation-matrix analysis (Fig. 2) with genuinely overlapped
  /// executions, which a time-sliced single-core OpenMP run cannot
  /// produce.
  bool record_trace = false;
  /// Fault-injection plan (see ajac/fault/fault_plan.hpp): stragglers,
  /// stale-delivery windows, per-edge message drop/duplicate/reorder, and
  /// crash-and-recover ranks. Null or empty disables every hook.
  /// Asynchronous mode only; bit-flip specs are rejected here (they are a
  /// shared-runtime fault — the simulator's relaxations are not
  /// instrumented per matrix entry).
  std::shared_ptr<const fault::FaultPlan> fault_plan;
  /// Observability sink (see ajac/obs/metrics.hpp): per-rank iteration and
  /// message counters, message-latency / queue-depth / ghost-age
  /// histograms, and a sim-time timeline (iteration spans, crash/recover
  /// and message-fault instants, the detection broadcast) exportable via
  /// obs::TraceEventSink. Timestamps are *simulated* microseconds. The
  /// simulator is single-threaded, so recording is plain branches; null
  /// leaves the run untouched.
  obs::MetricsRegistry* metrics = nullptr;
  /// Live telemetry hub (see ajac/obs/stream.hpp): each rank publishes
  /// coarse progress beacons (iteration, own-block residual 1-norm,
  /// relaxation and policy-draw counts) into its own ring every
  /// `beacon_stride`-th local iteration, with *simulated*-microsecond
  /// timestamps, plus a terminal beacon when the rank stops. The simulator
  /// is single-threaded, so publishing is plain branches; null leaves the
  /// run untouched. The hub must be sized for num_processes actors.
  obs::TelemetryHub* stream = nullptr;
};

/// Per-rank accounting for load/communication analysis.
struct RankStats {
  index_t iterations = 0;
  double busy_seconds = 0.0;   ///< time spent relaxing (work + overhead)
  double wait_seconds = 0.0;   ///< time queued for a core
  index_t messages_sent = 0;
  index_t messages_received = 0;
};

struct DistHistoryPoint {
  double sim_seconds = 0.0;
  index_t relaxations = 0;   ///< cumulative row relaxations, all processes
  double rel_residual_1 = 0.0;
  double rel_residual_2 = 0.0;
};

struct DistResult {
  Vector x;
  std::vector<DistHistoryPoint> history;
  double sim_seconds = 0.0;
  index_t total_relaxations = 0;
  std::vector<index_t> iterations_per_process;
  std::vector<RankStats> rank_stats;  ///< asynchronous mode only
  double final_rel_residual_1 = 0.0;
  bool reached_tolerance = false;
  /// Messages delivered out of order (asynchronous mode diagnostics).
  index_t reordered_messages = 0;
  index_t total_messages = 0;
  /// Ghost-read staleness diagnostic: how many ghost values consumed by
  /// relaxations differed from the owner's most recent committed value.
  index_t stale_ghost_reads = 0;
  index_t total_ghost_reads = 0;
  /// kNormReduction outcome: did rank 0 broadcast a stop, when, and what
  /// did it believe the relative residual was (vs. the true value then)?
  bool termination_detected = false;
  double detection_sim_seconds = -1.0;
  double detection_claimed_residual = -1.0;
  double detection_true_residual = -1.0;
  std::optional<model::RelaxationTrace> trace;
  /// Everything the fault plan injected, in canonical order (empty
  /// without a plan).
  fault::FaultLog fault_events;
  /// Messages lost to drop faults or crashed receivers; these never count
  /// as in flight (the eager rule's starvation check stays correct).
  index_t dropped_messages = 0;
  index_t duplicated_messages = 0;
};

/// Run distributed Jacobi on A x = b from x0 with the given contiguous
/// partition (rows of A must already be ordered part-major).
[[nodiscard]] DistResult solve_distributed(const CsrMatrix& a, const Vector& b,
                                           const Vector& x0,
                                           const partition::Partition& part,
                                           const DistOptions& opts);

}  // namespace ajac::distsim
