#include "ajac/mesh/mesh_jacobi.hpp"

#include <sched.h>

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
#include "ajac/runtime/shared_vector.hpp"
#include "ajac/runtime/terminator.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/validate.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "ajac/util/aligned.hpp"
#include "ajac/util/annotate.hpp"
#include "ajac/util/check.hpp"
#include "ajac/util/timer.hpp"

namespace ajac::mesh {

namespace {

/// Per-agent queue traffic tallies, folded into MeshResult (and the
/// metrics slot) after the join.
struct AgentTotals {
  index_t sent = 0;
  index_t received = 0;
  index_t dropped = 0;
  index_t duplicated = 0;
  index_t queue_full = 0;
};

/// Per-agent metrics recorder feeding obs::MetricsRegistry (EventRing-backed
/// timeline + counters/histograms), one "agent" lane per mesh agent. Built
/// from a possibly-null registry: without one every hook returns at once
/// (no timer read, no slot write), so the uninstrumented solve computes
/// the same bits at the cost of one branch per hook. One slot per agent by
/// the registry's contract: the agent's thread is the slot's sole writer
/// for the whole run, and each hook claims that role.
class MeshRecorder {
 public:
  MeshRecorder(obs::MetricsRegistry* reg, index_t agent,
               const WallTimer& timer)
      : slot_(reg != nullptr ? &reg->actor(agent) : nullptr),
        timer_(&timer) {}

  void iteration_begin() {
    if (slot_ == nullptr) return;
    t0_us_ = timer_->microseconds();
  }

  void iteration_end(index_t iter, index_t own_rows) {
    if (slot_ == nullptr) return;
    slot_->owner.assert_held();
    const double t1 = timer_->microseconds();
    slot_->add(obs::Counter::kIterations);
    slot_->add(obs::Counter::kRelaxations,
               static_cast<std::uint64_t>(own_rows));
    slot_->record(obs::Hist::kIterationUs,
                  static_cast<std::uint64_t>(t1 - t0_us_));
    slot_->span(obs::TraceKind::kIteration, t0_us_, t1, iter);
  }

  void flag_update(bool done) {
    if (slot_ == nullptr) return;
    slot_->owner.assert_held();
    if (done && !flag_up_) slot_->add(obs::Counter::kFlagRaises);
    flag_up_ = done;
  }

  void stop_decided() {
    if (slot_ == nullptr) return;
    slot_->owner.assert_held();
    slot_->instant(obs::TraceKind::kStop, timer_->microseconds());
  }

  /// Mailbox depth observed by one drain pass (popped packet count).
  void drain_summary(index_t popped) {
    if (slot_ == nullptr) return;
    slot_->owner.assert_held();
    slot_->record(obs::Hist::kQueueDepth, static_cast<std::uint64_t>(popped));
  }

  /// Sender-iteration lag of an applied ghost packet.
  void ghost_age(index_t iter, index_t header) {
    if (slot_ == nullptr) return;
    slot_->owner.assert_held();
    const index_t age = iter > header ? iter - header : 0;
    slot_->record(obs::Hist::kGhostReadAge, static_cast<std::uint64_t>(age));
  }

  void fold_totals(const AgentTotals& totals, const fault::FaultLog& log) {
    if (slot_ == nullptr) return;
    slot_->owner.assert_held();
    slot_->add(obs::Counter::kMessagesSent,
               static_cast<std::uint64_t>(totals.sent));
    slot_->add(obs::Counter::kMessagesReceived,
               static_cast<std::uint64_t>(totals.received));
    slot_->add(obs::Counter::kMessagesDropped,
               static_cast<std::uint64_t>(totals.dropped));
    slot_->add(obs::Counter::kMessagesDuplicated,
               static_cast<std::uint64_t>(totals.duplicated));
    slot_->add(obs::Counter::kQueueFullDrops,
               static_cast<std::uint64_t>(totals.queue_full));
    slot_->add(obs::Counter::kFaultEvents,
               static_cast<std::uint64_t>(log.size()));
  }

 private:
  obs::ActorSlot* slot_;  ///< null without a registry
  const WallTimer* timer_;
  double t0_us_ = 0.0;
  bool flag_up_ = false;
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

// Faulted: each agent runs its fault::ActorFaults schedule (see
// begin_iteration and publish below); the unfaulted instantiation carries
// no fault branches at all. Metrics are runtime-null (MeshRecorder).
template <bool Sync, bool Faulted>
MeshResult solve_mesh_impl(const CsrMatrix& a, const Vector& b,
                           const Vector& x0, const MeshOptions& opts,
                           const MeshTopology& topo,
                           const fault::FaultPlan* plan) {
  const index_t n = a.num_rows();
  const index_t na = topo.num_agents();

  // Control-plane board (see mesh_jacobi.hpp): an untraced SharedVector
  // holding every agent's committed x, read only by the termination
  // protocol — never by a relaxation. Untraced writes are single relaxed
  // stores, so overlapping owners committing the same row are a benign
  // last-write-wins race (and write identical values in synchronous mode).
  runtime::SharedVector x_board(n, /*traced=*/false);
  const std::vector<std::vector<char>> counted = counted_rows(topo);
  auto counts = [&](index_t t, std::size_t k) {
    const auto& mask = counted[static_cast<std::size_t>(t)];
    return mask.empty() || mask[k] != 0;
  };

  // Agent-parallel prologue: each agent fills its counted rows of the x
  // board (x0), of `resid` (b - A x0 row by row: CsrMatrix::residual's
  // bits) and of inv_diag. r0's norm stays one serial row-order sum.
  UninitVector<double> resid(static_cast<std::size_t>(n));
  UninitVector<double> inv_diag(static_cast<std::size_t>(n));
  std::vector<index_t> zero_row(static_cast<std::size_t>(na), -1);
  for_each_agent(na, [&](index_t t) {
    // The topology makes this agent the sole writer of its counted rows.
    x_board.writer_role().assert_held();
    const auto& rows = topo.agents[static_cast<std::size_t>(t)].rows;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      if (!counts(t, k)) continue;
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
  runtime::Terminator term(na, vec::norm1(resid), opts.tolerance,
                           opts.max_iterations);

  // One SPSC ring per directed edge, sized to the edge's boundary width.
  // deque, not vector: the ring is immovable (index atomics), and deque
  // emplaces in place without relocation.
  std::deque<SpscQueue> queues;
  for (const MeshEdge& e : topo.edges) {
    queues.emplace_back(e.rows.size(),
                        static_cast<std::size_t>(opts.queue_capacity));
  }

  MeshResult result;
  result.iterations_per_agent.assign(static_cast<std::size_t>(na), 0);
  std::vector<std::vector<MeshHistoryPoint>> histories(
      static_cast<std::size_t>(na));
  std::vector<std::vector<model::RelaxationEvent>> agent_events(
      static_cast<std::size_t>(na));
  std::vector<fault::FaultLog> fault_logs(static_cast<std::size_t>(na));
  std::vector<AgentTotals> agent_totals(static_cast<std::size_t>(na));

  // Lockstep gate for the synchronous schedule (solve_shared's three
  // barriers per iteration). std::barrier is TSan-native, unlike the
  // OpenMP barriers the shared runtime has to annotate around.
  std::optional<std::barrier<>> gate;
  if constexpr (Sync) gate.emplace(static_cast<std::ptrdiff_t>(na));

  WallTimer timer;

  auto agent_main = [&](index_t t) {
    const AgentBlock& blk = topo.agents[static_cast<std::size_t>(t)];
    const auto own_rows = static_cast<index_t>(blk.rows.size());

    // The agent's full-length local view: own rows hold its committed
    // iterates, ghost columns hold the last applied packet values, and
    // every other entry stays at x0 (never read — the stencil of the own
    // rows touches only own + ghost columns). Full length buys free
    // support for arbitrary non-contiguous and overlapping row sets: no
    // index translation anywhere in the hot loop.
    Vector x_local = x0;
    std::vector<double> staged(static_cast<std::size_t>(own_rows));
    // Per-column versions for trace mode: commit count of own rows,
    // packet-header-derived count of ghosts (disjoint sets only, so both
    // are well-defined). Sized only when tracing.
    std::vector<index_t> versions;
    if (opts.record_trace) {
      versions.assign(static_cast<std::size_t>(n), 0);
    }
    std::size_t max_width = 1;
    for (const index_t e : blk.in_edges) {
      max_width = std::max(max_width, queues[static_cast<std::size_t>(e)].width());
    }
    for (const index_t e : blk.out_edges) {
      max_width = std::max(max_width, queues[static_cast<std::size_t>(e)].width());
    }
    std::vector<double> packet_buf(max_width);

    // Claim the single-writer roles this agent's topology position grants
    // it: its rows of the x board, the producer end of its outbound
    // queues, the consumer end of its inbound queues. Claims, not locks —
    // ownership is established by the topology (see SoleWriterRole).
    x_board.writer_role().assert_held();
    for (const index_t e : blk.out_edges) {
      queues[static_cast<std::size_t>(e)].producer.assert_held();
    }
    for (const index_t e : blk.in_edges) {
      queues[static_cast<std::size_t>(e)].consumer.assert_held();
    }

    // Straggler, crash and stale-window decisions are keyed on the local
    // iteration and message drop / duplicate decisions on (directed edge,
    // sender's per-edge packet counter), exactly like the shared runtime
    // and distsim: the injected sequence is a pure function of the plan,
    // independent of scheduling, and one plan means the same thing on
    // every runtime.
    std::optional<fault::ActorFaults> faults;
    if constexpr (Faulted) faults.emplace(*plan, t);
    MeshRecorder metrics(opts.metrics, t, timer);
    AgentTotals totals;
    auto& my_history = histories[static_cast<std::size_t>(t)];
    auto& my_events = agent_events[static_cast<std::size_t>(t)];
    if (opts.record_history) {
      // Reserve outside the timed loop (reallocation mid-run would
      // perturb the asynchronous interleaving); parked agents never pass
      // max_iterations, so this bound is exact.
      my_history.reserve(static_cast<std::size_t>(opts.max_iterations));
    }
    std::vector<index_t> sent_on_edge(blk.out_edges.size(), 0);

    const JacobiProcessor proc(a, b, inv_diag);
    static_assert(
        IterativeProcessorFor<JacobiProcessor,
                              decltype([](index_t) { return 0.0; })>);

    index_t iter = 0;

    // Apply every packet currently queued on the inbound edges to the
    // local ghost entries (arrival order; with overlapping owners the
    // last applied packet wins).
    auto drain = [&](bool traced) {
      index_t popped = 0;
      for (const index_t e : blk.in_edges) {
        SpscQueue& q = queues[static_cast<std::size_t>(e)];
        const MeshEdge& edge = topo.edges[static_cast<std::size_t>(e)];
        index_t header = 0;
        std::span<double> buf(packet_buf.data(), q.width());
        while (q.try_pop(header, buf)) {
          ++popped;
          for (std::size_t k = 0; k < edge.rows.size(); ++k) {
            x_local[edge.rows[k]] = buf[k];
          }
          if (traced) {
            // A packet carries the sender's commits of iteration
            // `header`, i.e. its (header + 1)-th committed values.
            for (const index_t row : edge.rows) {
              versions[static_cast<std::size_t>(row)] = header + 1;
            }
          }
          metrics.ghost_age(iter, header);
        }
      }
      totals.received += popped;
      metrics.drain_summary(popped);
    };

    // Ship the committed boundary values to every subscriber, applying
    // the per-edge drop / duplicate decisions. A refused push (full
    // ring) counts as queue_full backpressure, not as a fault: it
    // consumes no FaultClock decision, so the fault log stays a pure
    // function of the plan.
    auto publish = [&] {
      for (std::size_t ei = 0; ei < blk.out_edges.size(); ++ei) {
        const index_t e = blk.out_edges[ei];
        SpscQueue& q = queues[static_cast<std::size_t>(e)];
        const MeshEdge& edge = topo.edges[static_cast<std::size_t>(e)];
        const index_t k = sent_on_edge[ei]++;
        [[maybe_unused]] const std::uint64_t key =
            directed_edge_key(edge.sender, edge.receiver);
        if constexpr (Faulted) {
          if (faults->drop_message(key, edge.receiver, k)) {
            ++totals.dropped;
            continue;
          }
        }
        for (std::size_t p = 0; p < edge.rows.size(); ++p) {
          packet_buf[p] = x_local[edge.rows[p]];
        }
        const std::span<const double> payload(packet_buf.data(),
                                              edge.rows.size());
        ++totals.sent;
        if (!q.try_push(iter, payload)) ++totals.queue_full;
        if constexpr (Faulted) {
          if (faults->duplicate_message(key, edge.receiver, k)) {
            ++totals.duplicated;
            ++totals.sent;
            if (!q.try_push(iter, payload)) ++totals.queue_full;
          }
        }
      }
    };

    // This agent's share of a verification round (terminator.hpp): the
    // fresh residual 1-norm of the rows it counts, read from the x board.
    const auto own_fresh = [&] {
      double norm = 0.0;
      for (std::size_t k = 0; k < blk.rows.size(); ++k) {
        if (!counts(t, k)) continue;
        const index_t i = blk.rows[k];
        norm += std::abs(runtime::row_residual(
            a, i, b[i], [&](index_t j) { return x_board.read(j); }));
      }
      return norm;
    };

    while (!term.stopped()) {
      if (term.at_cap(iter)) {
        // Park-at-cap, the shared runtime's policy (see terminator.hpp).
        // Unreachable in synchronous mode: lockstep flags all rise at the
        // cap iteration and the poll latches stop before re-entry.
        if (term.park(t, iter, own_fresh)) metrics.stop_decided();
        continue;
      }
      metrics.iteration_begin();
      // Inside a stale window the asynchronous drains are skipped: the
      // ghosts freeze at their last applied values while packets queue up
      // behind the window (the message-passing form of the shared
      // runtime's frozen off-block snapshot).
      bool frozen = false;
      if constexpr (Faulted) {
        const fault::IterationFaults f = faults->begin_iteration(iter);
        // A stalled or crashed agent stops participating. Packets that
        // arrive meanwhile pile up in its bounded inbound rings and the
        // overflow is dropped: the mesh analogue of distsim's "messages to
        // a dead rank are lost".
        spin_wait_us(f.stall_us);
        if (f.reset_state) {
          // Crash recovery with lost memory: restart the own rows from
          // the initial guess, locally and on the board (so the verified
          // stop sees the reset state). Neighbors keep their last
          // received values until the next publish.
          for (const index_t i : blk.rows) {
            x_local[i] = x0[i];
            x_board.write(i, x0[i]);
          }
        }
        frozen = f.stale_active;
      }
      if constexpr (!Sync) {
        if (!frozen) drain(opts.record_trace);  // asynchronous ghost refresh
      }

      // Step 1: stage every owned row from the local view (Jacobi
      // discipline: all stages read the pre-commit state) and sum the
      // counted staged residuals into this agent's partial norm
      // (terminator.hpp), published before the first lockstep point.
      double partial = 0.0;
      if (opts.record_trace) {
        for (index_t k = 0; k < own_rows; ++k) {
          const index_t i = blk.rows[static_cast<std::size_t>(k)];
          model::RelaxationEvent event;
          event.row = i;
          event.reads.reserve(a.row_cols(i).size());
          staged[static_cast<std::size_t>(k)] =
              proc.stage(i, [&](index_t j) {
                if (j != i) {
                  event.reads.push_back(
                      {j, versions[static_cast<std::size_t>(j)]});
                }
                return x_local[j];
              });
          if (counts(t, static_cast<std::size_t>(k))) {
            partial += std::abs(staged[static_cast<std::size_t>(k)]);
          }
          my_events.push_back(std::move(event));
        }
      } else {
        for (index_t k = 0; k < own_rows; ++k) {
          const index_t i = blk.rows[static_cast<std::size_t>(k)];
          staged[static_cast<std::size_t>(k)] =
              proc.stage(i, [&](index_t j) { return x_local[j]; });
          if (counts(t, static_cast<std::size_t>(k))) {
            partial += std::abs(staged[static_cast<std::size_t>(k)]);
          }
        }
      }
      term.publish_partial(t, partial);

      // Step 2: commit the staged updates, mirror them to the x board,
      // and ship the new boundary values.
      for (index_t k = 0; k < own_rows; ++k) {
        const index_t i = blk.rows[static_cast<std::size_t>(k)];
        x_local[i] =
            proc.apply(i, x_local[i], staged[static_cast<std::size_t>(k)]);
        x_board.write(i, x_local[i]);
      }
      if (opts.record_trace) {
        for (const index_t i : blk.rows) {
          versions[static_cast<std::size_t>(i)] = iter + 1;
        }
      }
      publish();

      if constexpr (Sync) {
        // Lockstep point 1 (solve_shared's stage/commit barrier): every
        // agent's iteration-k values are committed and queued; drain so
        // the next stage reads a complete synchronous state.
        gate->arrive_and_wait();
        drain(opts.record_trace);
      }

      ++iter;

      // Step 3: convergence check — the agents' partials summed in agent
      // order (bitwise solve_shared's aggregation).
      const double rel = term.racy_rel();
      if (opts.record_history) {
        my_history.push_back({timer.seconds(), t, iter, rel});
      }
      const bool my_done = term.flag(t, iter, rel);
      metrics.flag_update(my_done);

      if constexpr (Sync) gate->arrive_and_wait();
      if (term.poll(t, iter, own_fresh)) metrics.stop_decided();
      if constexpr (Sync) {
        // Keep lockstep: every agent passes the same number of barriers
        // and sees the verified stop decision together.
        gate->arrive_and_wait();
      }
      metrics.iteration_end(iter - 1, own_rows);
      if constexpr (!Sync) {
        if (opts.yield && !term.stopped()) sched_yield();
      }
    }

    result.iterations_per_agent[static_cast<std::size_t>(t)] = iter;
    agent_totals[static_cast<std::size_t>(t)] = totals;
    if constexpr (Faulted) {
      fault_logs[static_cast<std::size_t>(t)] = faults->take_log();
    }
    metrics.fold_totals(totals, fault_logs[static_cast<std::size_t>(t)]);
  };

  // std::thread creation/join are TSan-native happens-before edges, so
  // unlike the OpenMP runtime no manual annotations are needed around the
  // parallel regions.
  for_each_agent(na, agent_main);

  // Agent-parallel epilogue: each agent copies its counted rows of the x
  // board into x and writes their residual to `resid` for the serial
  // verification.
  result.seconds = timer.seconds();
  result.x.resize(static_cast<std::size_t>(n));
  for_each_agent(na, [&](index_t t) {
    const auto& rows = topo.agents[static_cast<std::size_t>(t)].rows;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      if (!counts(t, k)) continue;
      const index_t i = rows[k];
      result.x[static_cast<std::size_t>(i)] = x_board.read(i);
      resid[static_cast<std::size_t>(i)] = runtime::row_residual(
          a, i, b[i], [&](index_t j) { return x_board.read(j); });
    }
  });

  const runtime::PolishOutcome fin = runtime::verify_and_polish(
      a, b, inv_diag, term.r0_norm(), opts.tolerance, opts.final_polish,
      runtime::polish_budget(na), result.x, resid);
  result.final_rel_residual_1 = fin.rel_residual_1;
  result.polish_sweeps = fin.sweeps;
  result.converged = fin.converged;

  for (index_t t = 0; t < na; ++t) {
    result.total_relaxations +=
        result.iterations_per_agent[static_cast<std::size_t>(t)] *
        static_cast<index_t>(topo.agents[static_cast<std::size_t>(t)].rows.size());
    const AgentTotals& totals = agent_totals[static_cast<std::size_t>(t)];
    result.messages_sent += totals.sent;
    result.messages_received += totals.received;
    result.messages_dropped += totals.dropped;
    result.messages_duplicated += totals.duplicated;
    result.queue_full_drops += totals.queue_full;
  }

  for (auto& h : histories) {
    result.history.insert(result.history.end(), h.begin(), h.end());
  }
  std::sort(result.history.begin(), result.history.end(),
            [](const MeshHistoryPoint& p1, const MeshHistoryPoint& p2) {
              return p1.seconds < p2.seconds;
            });

  if (opts.record_trace) {
    model::RelaxationTrace trace(n);
    // Per-row order is preserved: disjoint row sets give every row a
    // unique owner, and each agent appends its events in execution order.
    for (const auto& events : agent_events) {
      for (const auto& e : events) trace.add_event(e);
    }
    result.trace = std::move(trace);
  }
  if constexpr (Faulted) {
    for (auto& log : fault_logs) {
      result.fault_events.insert(result.fault_events.end(), log.begin(),
                                 log.end());
    }
    fault::canonicalize(result.fault_events);
  }
  return result;
}

template <bool Sync>
MeshResult dispatch_faults(const CsrMatrix& a, const Vector& b,
                           const Vector& x0, const MeshOptions& opts,
                           const MeshTopology& topo,
                           const fault::FaultPlan* plan) {
  if (plan != nullptr) {
    return solve_mesh_impl<Sync, true>(a, b, x0, opts, topo, plan);
  }
  return solve_mesh_impl<Sync, false>(a, b, x0, opts, topo, nullptr);
}

}  // namespace

MeshResult solve_mesh(const CsrMatrix& a, const Vector& b, const Vector& x0,
                      const MeshOptions& opts) {
  AJAC_CHECK(a.num_rows() == a.num_cols());
  const index_t n = a.num_rows();
  AJAC_CHECK(b.size() == static_cast<std::size_t>(n));
  AJAC_CHECK(x0.size() == static_cast<std::size_t>(n));
  AJAC_CHECK(opts.num_agents >= 1);
  AJAC_CHECK(opts.max_iterations >= 1);
  AJAC_CHECK(opts.queue_capacity >= 1);
  // A NaN tolerance would never be met, so the solve would silently run to
  // max_iterations; <= 0 keeps its meaning of "iteration cap only".
  AJAC_CHECK_MSG(!std::isnan(opts.tolerance),
                 "tolerance is NaN (use <= 0 for the iteration cap only)");

  const RowSets sets = opts.row_sets.has_value()
                           ? *opts.row_sets
                           : contiguous_row_sets(n, opts.num_agents);
  AJAC_CHECK_MSG(sets.num_agents() == opts.num_agents,
                 "row_sets must define exactly num_agents sets");
  const MeshTopology topo = build_topology(a, sets);
  AJAC_CHECK_MSG(!opts.record_trace || topo.disjoint,
                 "trace recording needs disjoint row sets (per-row commit "
                 "versions require a unique writer)");

  AJAC_DBG_VALIDATE(validate::csr_structure(
      a, {.require_sorted_rows = true, .require_diagonal = true,
          .require_finite = true, .require_square = true}));
  AJAC_DBG_VALIDATE(validate::finite(b, "b"));
  AJAC_DBG_VALIDATE(validate::finite(x0, "x0"));

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

  obs::MetricsRegistry* metrics = opts.metrics;
  if (metrics != nullptr) {
    metrics->set_actor_kind("agent");
    metrics->reset(opts.num_agents,
                   static_cast<std::size_t>(opts.max_iterations) + 64);
  }

  if (opts.synchronous) {
    return dispatch_faults<true>(a, b, x0, opts, topo, plan);
  }
  return dispatch_faults<false>(a, b, x0, opts, topo, plan);
}

}  // namespace ajac::mesh
