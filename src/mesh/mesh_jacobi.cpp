#include "ajac/mesh/mesh_jacobi.hpp"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <deque>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "ajac/fault/actor_faults.hpp"
#include "ajac/mesh/processor.hpp"
#include "ajac/mesh/spsc_queue.hpp"
#include "ajac/mesh/topology.hpp"
#include "ajac/obs/metrics.hpp"
#include "ajac/runtime/actor_step.hpp"
#include "ajac/runtime/shared_vector.hpp"
#include "ajac/util/aligned.hpp"
#include "ajac/util/check.hpp"

namespace ajac::mesh {

namespace {

using runtime::detail::ActorOutcome;
using runtime::detail::MetricsRecorder;

/// Per-agent queue traffic tallies, folded into MeshResult (and the
/// metrics slot) after the join.
struct AgentTotals {
  index_t sent = 0;
  index_t received = 0;
  index_t dropped = 0;
  index_t duplicated = 0;
  index_t queue_full = 0;
};

/// Run `fn(agent)` on one thread per agent and join them.
template <class Fn>
void for_each_agent(index_t na, Fn&& fn) {
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(na));
  for (index_t t = 0; t < na; ++t) workers.emplace_back(fn, t);
  for (auto& w : workers) w.join();
}

/// Which of each agent's rows it counts in its partial norm and fills in
/// the prologue and epilogue: every owned row when the sets are disjoint
/// (empty masks), else only the rows no lower-numbered agent owns, so each
/// row is counted exactly once.
std::vector<std::vector<char>> counted_rows(const MeshTopology& topo) {
  std::vector<std::vector<char>> counted(topo.agents.size());
  if (topo.disjoint) return counted;
  std::vector<char> claimed(static_cast<std::size_t>(topo.num_rows), 0);
  for (std::size_t t = 0; t < topo.agents.size(); ++t) {
    for (const index_t i : topo.agents[t].rows) {
      counted[t].push_back(claimed[static_cast<std::size_t>(i)] == 0 ? 1 : 0);
      claimed[static_cast<std::size_t>(i)] = 1;
    }
  }
  return counted;
}

/// What every agent's transport shares: the inputs, the queues (one SPSC
/// ring per directed edge) and the control-plane board (see
/// mesh_jacobi.hpp): an untraced SharedVector holding every agent's
/// committed x, read only by the termination protocol — never by a
/// relaxation.
struct MeshPlane {
  const CsrMatrix& a;
  const Vector& b;
  const Vector& x0;
  const MeshOptions& opts;
  const MeshTopology& topo;
  const fault::FaultPlan* plan;
  std::span<const double> inv_diag;
  runtime::SharedVector& x_board;
  std::deque<SpscQueue>& queues;
  std::vector<std::vector<char>> counted;  ///< counted_rows(topo)
  std::vector<AgentTotals> totals;         ///< per agent, after the join

  [[nodiscard]] bool counts(index_t t, std::size_t k) const {
    const auto& mask = counted[static_cast<std::size_t>(t)];
    return mask.empty() || mask[k] != 0;
  }
};

static_assert(IterativeProcessorFor<JacobiProcessor,
                                    decltype([](index_t) { return 0.0; })>);

/// The mesh's transport for the actor step (DESIGN.md §2f): agent t's
/// rows, relaxed against its local view. Each method claims the
/// single-writer roles this agent's topology position grants it where it
/// uses them: its rows of the x board, the producer end of its outbound
/// queues, the consumer end of its inbound queues. Claims, not locks —
/// ownership is established by the topology (see SoleWriterRole).
template <bool Faulted>
class MeshTransport {
 public:
  using Point = MeshHistoryPoint;
  using Options = MeshOptions;

  MeshTransport(MeshPlane& m, index_t t)
      : m_(&m),
        board_(m.x_board),
        t_(t),
        blk_(&m.topo.agents[static_cast<std::size_t>(t)]),
        // The agent's full-length local view: own rows hold its committed
        // iterates, ghost columns hold the last applied packet values, and
        // every other entry stays at x0 (never read — the stencil of the
        // own rows touches only own + ghost columns). Full length buys free
        // support for arbitrary non-contiguous and overlapping row sets: no
        // index translation anywhere in the hot loop.
        x_local_(m.x0),
        staged_(blk_->rows.size()),
        sent_on_edge_(blk_->out_edges.size(), 0),
        proc_(m.a, m.b, m.inv_diag) {
    // Per-column versions for trace mode: commit count of own rows,
    // packet-header-derived count of ghosts (disjoint sets only, so both
    // are well-defined). Sized only when tracing.
    if (m.opts.record_trace) {
      versions_.assign(static_cast<std::size_t>(m.a.num_rows()), 0);
    }
    std::size_t max_width = 1;
    for (const auto* edges : {&blk_->in_edges, &blk_->out_edges}) {
      for (const index_t e : *edges) {
        const SpscQueue& q = m.queues[static_cast<std::size_t>(e)];
        max_width = std::max(max_width, q.width());
      }
    }
    packet_buf_.resize(max_width);
    // Straggler, crash and stale-window decisions are keyed on the local
    // iteration and message drop / duplicate decisions on (directed edge,
    // sender's per-edge packet counter), exactly like the shared runtime
    // and distsim: the injected sequence is a pure function of the plan,
    // independent of scheduling, and one plan means the same thing on
    // every runtime.
    if constexpr (Faulted) faults_.emplace(*m.plan, t);
  }

  void begin(index_t iter, MetricsRecorder& metrics) {
    board_.writer_role().assert_held();
    // Inside a stale window the asynchronous drains are skipped: the ghosts
    // freeze at their last applied values while packets queue up behind
    // the window (the message-passing form of the shared runtime's frozen
    // off-block snapshot).
    bool frozen = false;
    if constexpr (Faulted) {
      const fault::IterationFaults f = faults_->begin_iteration(iter);
      // A stalled or crashed agent stops participating. Packets that
      // arrive meanwhile pile up in its bounded inbound rings and the
      // overflow is dropped: the mesh analogue of distsim's "messages to a
      // dead rank are lost".
      spin_wait_us(f.stall_us);
      if (f.reset_state) {
        // Crash recovery with lost memory: restart the own rows from the
        // initial guess, locally and on the board (so the verified stop
        // sees the reset state). Neighbors keep their last received
        // values until the next publish.
        for (const index_t i : blk_->rows) {
          x_local_[i] = m_->x0[i];
          board_.write(i, m_->x0[i]);
        }
      }
      frozen = f.stale_active;
    }
    // The asynchronous ghost refresh.
    if (!m_->opts.synchronous && !frozen) drain(iter, metrics);
  }

  /// Stage every owned row from the local view (Jacobi discipline: all
  /// stages read the pre-commit state) and sum the counted staged
  /// residuals into this agent's partial norm (terminator.hpp).
  double relax(index_t /*iter*/, MetricsRecorder& /*metrics*/) {
    double partial = 0.0;
    for (std::size_t k = 0; k < staged_.size(); ++k) {
      const index_t i = blk_->rows[k];
      if (m_->opts.record_trace) {
        model::RelaxationEvent event;
        event.row = i;
        event.reads.reserve(m_->a.row_cols(i).size());
        staged_[k] = proc_.stage(i, [&](index_t j) {
          if (j != i) {
            event.reads.push_back({j, versions_[static_cast<std::size_t>(j)]});
          }
          return x_local_[j];
        });
        events_.push_back(std::move(event));
      } else {
        staged_[k] = proc_.stage(i, [&](index_t j) { return x_local_[j]; });
      }
      if (m_->counts(t_, k)) partial += std::abs(staged_[k]);
    }
    return partial;
  }

  /// Commit the staged updates, mirror them to the x board, and ship the
  /// new boundary values to every subscriber, applying the per-edge drop /
  /// duplicate decisions. A refused push (full ring) counts as queue_full
  /// backpressure, not as a fault: it consumes no FaultClock decision, so
  /// the fault log stays a pure function of the plan.
  void send(index_t iter) {
    board_.writer_role().assert_held();
    for (std::size_t k = 0; k < staged_.size(); ++k) {
      const index_t i = blk_->rows[k];
      x_local_[i] = proc_.apply(i, x_local_[i], staged_[k]);
      board_.write(i, x_local_[i]);
    }
    if (m_->opts.record_trace) {
      for (const index_t i : blk_->rows) {
        versions_[static_cast<std::size_t>(i)] = iter + 1;
      }
    }
    for (std::size_t ei = 0; ei < blk_->out_edges.size(); ++ei) {
      const index_t e = blk_->out_edges[ei];
      SpscQueue& q = m_->queues[static_cast<std::size_t>(e)];
      q.producer.assert_held();
      const MeshEdge& edge = m_->topo.edges[static_cast<std::size_t>(e)];
      const index_t k = sent_on_edge_[ei]++;
      [[maybe_unused]] const std::uint64_t key =
          directed_edge_key(edge.sender, edge.receiver);
      if constexpr (Faulted) {
        if (faults_->drop_message(key, edge.receiver, k)) {
          ++totals_.dropped;
          continue;
        }
      }
      for (std::size_t p = 0; p < edge.rows.size(); ++p) {
        packet_buf_[p] = x_local_[edge.rows[p]];
      }
      const std::span<const double> payload(packet_buf_.data(),
                                            edge.rows.size());
      ++totals_.sent;
      if (!q.try_push(iter, payload)) ++totals_.queue_full;
      if constexpr (Faulted) {
        if (faults_->duplicate_message(key, edge.receiver, k)) {
          ++totals_.duplicated;
          ++totals_.sent;
          if (!q.try_push(iter, payload)) ++totals_.queue_full;
        }
      }
    }
  }

  /// Lockstep point 1 (solve_shared's stage/commit barrier) has passed:
  /// every agent's iteration-k values are committed and queued; drain so
  /// the next stage reads a complete synchronous state.
  void receive(index_t iter, MetricsRecorder& metrics) {
    if (m_->opts.synchronous) drain(iter, metrics);
  }

  /// This agent's share of a verification round (terminator.hpp): the
  /// fresh residual 1-norm of the rows it counts, read from the x board.
  [[nodiscard]] double fresh() const {
    double norm = 0.0;
    for (std::size_t k = 0; k < blk_->rows.size(); ++k) {
      if (!m_->counts(t_, k)) continue;
      const index_t i = blk_->rows[k];
      norm += std::abs(runtime::row_residual(
          m_->a, i, m_->b[i], [&](index_t j) { return board_.read(j); }));
    }
    return norm;
  }

  [[nodiscard]] index_t rows() const {
    return static_cast<index_t>(blk_->rows.size());
  }

  [[nodiscard]] const fault::ActorFaults* schedule() const {
    return faults_ ? &*faults_ : nullptr;
  }

  /// The traffic fold: this agent's queue tallies into its metrics slot
  /// and, summed after the join, into MeshResult.
  void retire(ActorOutcome<Point>& out, MetricsRecorder& metrics) {
    out.events = std::move(events_);
    if (faults_) out.faults = faults_->take_log();
    metrics.add(obs::Counter::kMessagesSent, totals_.sent);
    metrics.add(obs::Counter::kMessagesReceived, totals_.received);
    metrics.add(obs::Counter::kMessagesDropped, totals_.dropped);
    metrics.add(obs::Counter::kMessagesDuplicated, totals_.duplicated);
    metrics.add(obs::Counter::kQueueFullDrops, totals_.queue_full);
    m_->totals[static_cast<std::size_t>(t_)] = totals_;
  }

 private:
  /// Apply every packet currently queued on the inbound edges to the
  /// local ghost entries (arrival order; with overlapping owners the last
  /// applied packet wins). Records the mailbox depth of the pass (popped
  /// packets) and each packet's sender-iteration lag.
  void drain(index_t iter, MetricsRecorder& metrics) {
    index_t popped = 0;
    for (const index_t e : blk_->in_edges) {
      SpscQueue& q = m_->queues[static_cast<std::size_t>(e)];
      q.consumer.assert_held();
      const MeshEdge& edge = m_->topo.edges[static_cast<std::size_t>(e)];
      index_t header = 0;
      std::span<double> buf(packet_buf_.data(), q.width());
      while (q.try_pop(header, buf)) {
        ++popped;
        for (std::size_t k = 0; k < edge.rows.size(); ++k) {
          x_local_[edge.rows[k]] = buf[k];
        }
        if (m_->opts.record_trace) {
          // A packet carries the sender's commits of iteration `header`,
          // i.e. its (header + 1)-th committed values.
          for (const index_t row : edge.rows) {
            versions_[static_cast<std::size_t>(row)] = header + 1;
          }
        }
        metrics.record(obs::Hist::kGhostReadAge,
                       iter > header ? iter - header : 0);
      }
    }
    totals_.received += popped;
    metrics.record(obs::Hist::kQueueDepth, popped);
  }

  MeshPlane* m_;
  runtime::SharedVector& board_;
  index_t t_;
  const AgentBlock* blk_;
  Vector x_local_;
  std::vector<double> staged_;
  std::vector<index_t> versions_;
  std::vector<double> packet_buf_;
  std::vector<index_t> sent_on_edge_;
  JacobiProcessor proc_;
  std::optional<fault::ActorFaults> faults_;
  AgentTotals totals_;
  std::vector<model::RelaxationEvent> events_;
};

// Faulted: each agent runs its fault::ActorFaults schedule (see
// MeshTransport::begin and send); the unfaulted instantiation carries no
// fault branches at all. Metrics are runtime-null (MetricsRecorder).
template <bool Faulted>
MeshResult solve_mesh_impl(const CsrMatrix& a, const Vector& b,
                           const Vector& x0, const MeshOptions& opts,
                           const MeshTopology& topo,
                           const fault::FaultPlan* plan) {
  const index_t n = a.num_rows();
  const index_t na = topo.num_agents();

  // Untraced writes to the board are single relaxed stores, so overlapping
  // owners committing the same row are a benign last-write-wins race (and
  // write identical values in synchronous mode).
  runtime::SharedVector x_board(n, /*traced=*/false);
  // One SPSC ring per directed edge, sized to the edge's boundary width.
  // deque, not vector: the ring is immovable (index atomics), and deque
  // emplaces in place without relocation.
  std::deque<SpscQueue> queues;
  for (const MeshEdge& e : topo.edges) {
    queues.emplace_back(e.rows.size(),
                        static_cast<std::size_t>(opts.queue_capacity));
  }
  UninitVector<double> resid(static_cast<std::size_t>(n));
  UninitVector<double> inv_diag(static_cast<std::size_t>(n));
  MeshPlane m{a, b, x0, opts, topo, plan, inv_diag, x_board, queues,
              counted_rows(topo),
              std::vector<AgentTotals>(static_cast<std::size_t>(na))};

  // Agent-parallel prologue: each agent fills its counted rows of the x
  // board (x0), of `resid` (b - A x0 row by row: CsrMatrix::residual's
  // bits) and of inv_diag. r0's norm stays one serial row-order sum.
  std::vector<index_t> zero_row(static_cast<std::size_t>(na), -1);
  for_each_agent(na, [&](index_t t) {
    // The topology makes this agent the sole writer of its counted rows.
    x_board.writer_role().assert_held();
    const auto& rows = topo.agents[static_cast<std::size_t>(t)].rows;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      if (!m.counts(t, k)) continue;
      const index_t i = rows[k];
      x_board.init(i, x0[i]);
      resid[static_cast<std::size_t>(i)] = runtime::row_residual(
          a, i, b[i], [&](index_t j) { return x0[j]; });
      const double diag = a.at(i, i);
      inv_diag[static_cast<std::size_t>(i)] = 1.0 / diag;
      index_t& first = zero_row[static_cast<std::size_t>(t)];
      if (diag == 0.0 && first < 0) first = i;  // rows ascend
    }
  });
  index_t bad = -1;
  for (const index_t row : zero_row) {
    if (row >= 0 && (bad < 0 || row < bad)) bad = row;
  }
  AJAC_CHECK_MSG(bad < 0, "zero diagonal at row " << bad);
  runtime::detail::ActorTeam<MeshTransport<Faulted>> team(
      na, vec::norm1(resid), opts, nullptr);

  // Lockstep gate for the synchronous schedule (solve_shared's three
  // barriers per iteration). std::barrier is TSan-native, unlike the
  // OpenMP barriers the shared runtime has to annotate around, and so are
  // std::thread creation and join: no manual annotations are needed
  // around the parallel regions.
  std::optional<std::barrier<>> gate;
  if (opts.synchronous) gate.emplace(static_cast<std::ptrdiff_t>(na));
  for_each_agent(na, [&](index_t t) {
    runtime::detail::ActorStep<MeshTransport<Faulted>> step(team, t, m, t);
    step.run([&] { gate->arrive_and_wait(); });
    step.retire();
  });

  // Agent-parallel epilogue: each agent copies its counted rows of the x
  // board into x and writes their residual to `resid` for the serial
  // verification.
  MeshResult result;
  result.seconds = team.timer.seconds();
  result.x.resize(static_cast<std::size_t>(n));
  for_each_agent(na, [&](index_t t) {
    const auto& rows = topo.agents[static_cast<std::size_t>(t)].rows;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      if (!m.counts(t, k)) continue;
      const index_t i = rows[k];
      result.x[static_cast<std::size_t>(i)] = x_board.read(i);
      resid[static_cast<std::size_t>(i)] = runtime::row_residual(
          a, i, b[i], [&](index_t j) { return x_board.read(j); });
    }
  });
  team.finish(a, b, inv_diag, resid, result, result.iterations_per_agent);
  for (const AgentTotals& totals : m.totals) {
    result.messages_sent += totals.sent;
    result.messages_received += totals.received;
    result.messages_dropped += totals.dropped;
    result.messages_duplicated += totals.duplicated;
    result.queue_full_drops += totals.queue_full;
  }
  return result;
}

}  // namespace

MeshResult solve_mesh(const CsrMatrix& a, const Vector& b, const Vector& x0,
                      const MeshOptions& opts) {
  runtime::detail::check_solve_inputs(a, b, x0, opts);
  AJAC_CHECK(opts.num_agents >= 1);
  AJAC_CHECK(opts.queue_capacity >= 1);

  const RowSets sets = opts.row_sets.has_value()
                           ? *opts.row_sets
                           : contiguous_row_sets(a.num_rows(), opts.num_agents);
  AJAC_CHECK_MSG(sets.num_agents() == opts.num_agents,
                 "row_sets must define exactly num_agents sets");
  const MeshTopology topo = build_topology(a, sets);
  AJAC_CHECK_MSG(!opts.record_trace || topo.disjoint,
                 "trace recording needs disjoint row sets (per-row commit "
                 "versions require a unique writer)");

  const fault::FaultPlan* plan =
      opts.fault_plan && !opts.fault_plan->empty() ? opts.fault_plan.get()
                                                   : nullptr;
  if (plan != nullptr) {
    AJAC_CHECK_MSG(!opts.synchronous,
                   "fault injection targets the asynchronous mesh (the "
                   "synchronous barriers serialize every fault away)");
    plan->validate(opts.num_agents);
    fault::require_honoured(*plan, "solve_mesh", {.message_faults = true});
  }

  if (opts.metrics != nullptr) {
    opts.metrics->set_actor_kind("agent");
    opts.metrics->reset(opts.num_agents,
                        static_cast<std::size_t>(opts.max_iterations) + 64);
  }
  return plan != nullptr
             ? solve_mesh_impl<true>(a, b, x0, opts, topo, plan)
             : solve_mesh_impl<false>(a, b, x0, opts, topo, nullptr);
}

}  // namespace ajac::mesh
