#pragma once
// One actor's iteration of solve_shared and solve_mesh, written once over
// the runtime's transport. Internal: installed because both runtimes'
// libraries include it, not part of the public ajac/runtime interface.
//
// ActorStep splits an iteration at the synchronous schedule's three
// lockstep points into four phases (stage, settle, decide, close; DESIGN.md
// §2f). A runtime supplies only the transport, a template parameter, so no
// call per row or per iteration is virtual. The metrics recorder and the
// telemetry publisher fire once per iteration, so each is one class built
// from a possibly-null sink whose hooks return at once when nothing is
// attached: they cost a predictable branch, not an instantiation.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "ajac/fault/actor_faults.hpp"
#include "ajac/model/trace.hpp"
#include "ajac/obs/metrics.hpp"
#include "ajac/obs/stream.hpp"
#include "ajac/runtime/terminator.hpp"
#include "ajac/sparse/validate.hpp"
#include "ajac/util/check.hpp"
#include "ajac/util/timer.hpp"

namespace ajac::runtime::detail {

[[nodiscard]] inline obs::TraceKind fault_trace_kind(fault::FaultKind k) {
  switch (k) {
    case fault::FaultKind::kStragglerOn: return obs::TraceKind::kStragglerOn;
    case fault::FaultKind::kStaleWindowOn:
      return obs::TraceKind::kStaleWindowOn;
    case fault::FaultKind::kMessageDrop: return obs::TraceKind::kMessageDrop;
    case fault::FaultKind::kMessageDuplicate:
      return obs::TraceKind::kMessageDuplicate;
    case fault::FaultKind::kMessageReorder:
      return obs::TraceKind::kMessageReorder;
    case fault::FaultKind::kBitFlip: return obs::TraceKind::kBitFlip;
    case fault::FaultKind::kCrash: return obs::TraceKind::kCrash;
    case fault::FaultKind::kRecover: return obs::TraceKind::kRecover;
  }
  return obs::TraceKind::kBitFlip;  // unreachable
}

/// Per-actor metrics recorder over this actor's ActorSlot, built from a
/// possibly-null registry. Without one every hook returns at once: no
/// timer read, no slot write, and retry_sink() stays nullptr, so the
/// seqlock readers count nothing. The hooks fire once per iteration
/// (staleness fires per read, on traced runs only), so the branch each
/// one costs is noise next to a sweep, and no hook touches the solve's
/// arithmetic: a solve with and without a registry is bitwise the same.
///
/// All state is actor-local; the only shared object touched is the slot,
/// which has a single writer by the registry's threading contract. Each
/// recording method claims the slot's sole-writer role (assert_held)
/// before touching it — the claim is what lets -Wthread-safety verify
/// every slot mutation flows through the owning actor's recorder.
class MetricsRecorder {
 public:
  MetricsRecorder(obs::MetricsRegistry* reg, index_t actor,
                  const WallTimer& timer)
      : slot_(reg != nullptr ? &reg->actor(actor) : nullptr),
        timer_(&timer) {}

  /// True when a registry is attached.
  [[nodiscard]] bool on() const { return slot_ != nullptr; }

  void iteration_begin() {
    if (!on()) return;
    t0_us_ = timer_->seconds() * 1e6;
  }

  /// Timestamp the injections `faults` (null without a plan) performed
  /// since the last call. Its log is append-only within the actor, so
  /// entries past the last seen size are new; they become timeline
  /// instants (arg0 = the log entry's detail field: row for bit flips, 0
  /// otherwise). Injected stalls (stragglers, crash dead time) go to
  /// kSpinWaitNs by duration rather than timed: the wait is synthetic and
  /// exact.
  void sync_faults(const fault::ActorFaults* faults) {
    if (!on() || faults == nullptr) return;
    slot_->owner.assert_held();
    const double stalled = faults->stalled_us();
    if (stalled > seen_stall_us_) {
      slot_->add(obs::Counter::kSpinWaitNs,
                 static_cast<std::uint64_t>((stalled - seen_stall_us_) * 1e3));
      seen_stall_us_ = stalled;
    }
    const fault::FaultLog& log = faults->log();
    if (log.size() == seen_faults_) return;
    const double now_us = timer_->seconds() * 1e6;
    for (; seen_faults_ < log.size(); ++seen_faults_) {
      const fault::FaultEvent& e = log[seen_faults_];
      slot_->add(obs::Counter::kFaultEvents);
      slot_->instant(fault_trace_kind(e.kind), now_us, e.detail, e.detail2);
    }
  }

  /// One cross-block versioned read: how many versions behind a synchronous
  /// schedule it was. Under lockstep Jacobi a reader in local iteration
  /// `iter` (0-based) sees version `iter` of every neighbor; the shortfall
  /// is the staleness l of the paper's Φ(l) propagation analysis.
  void staleness(index_t iter, index_t version) {
    record(obs::Hist::kReadStaleness, version < iter ? iter - version : 0);
  }

  /// Blocked kernels only: how many matrix entries this iteration resolved
  /// from the thread-private mirror vs through the SharedVector. The counts
  /// are precomputed per block (local_nnz/ghost_nnz), so the hook costs two
  /// counter adds per iteration, nothing per entry. The reference path
  /// leaves both lanes at zero.
  void read_mix(index_t local_entries, index_t ghost_entries) {
    add(obs::Counter::kLocalReads, local_entries);
    add(obs::Counter::kGhostReads, ghost_entries);
  }

  /// A transport's own tallies (the mesh's queue traffic).
  void add(obs::Counter c, index_t n) {
    if (!on()) return;
    slot_->owner.assert_held();
    slot_->add(c, static_cast<std::uint64_t>(n));
  }
  void record(obs::Hist h, index_t value) {
    if (!on()) return;
    slot_->owner.assert_held();
    slot_->record(h, static_cast<std::uint64_t>(value));
  }

  /// Actor-local seqlock retry accumulator, flushed per iteration; null
  /// (nothing counted) without a registry.
  [[nodiscard]] std::uint64_t* retry_sink() {
    return on() ? &retries_ : nullptr;
  }

  void residual_check_begin() {
    if (!on()) return;
    tr0_us_ = timer_->seconds() * 1e6;
  }
  void residual_check_end() {
    if (!on()) return;
    const double us = timer_->seconds() * 1e6 - tr0_us_;
    add(obs::Counter::kResidualCheckNs, static_cast<index_t>(us * 1e3));
    record(obs::Hist::kResidualCheckUs, static_cast<index_t>(us));
  }

  void iteration_end(index_t iter, index_t rows) {
    if (!on()) return;
    slot_->owner.assert_held();
    const double t1_us = timer_->seconds() * 1e6;
    slot_->add(obs::Counter::kIterations);
    slot_->add(obs::Counter::kRelaxations, static_cast<std::uint64_t>(rows));
    if (retries_ != 0) {
      slot_->add(obs::Counter::kSeqlockRetries, retries_);
      retries_ = 0;
    }
    slot_->record(obs::Hist::kIterationUs,
                  static_cast<std::uint64_t>(t1_us - t0_us_));
    slot_->span(obs::TraceKind::kIteration, t0_us_, t1_us, iter);
  }

  void flag_update(bool my_done, index_t iter) {
    if (!on() || my_done == flag_up_) return;
    slot_->owner.assert_held();
    flag_up_ = my_done;
    const double now_us = timer_->seconds() * 1e6;
    if (my_done) {
      slot_->add(obs::Counter::kFlagRaises);
      slot_->instant(obs::TraceKind::kFlagRaise, now_us, iter);
    } else {
      slot_->instant(obs::TraceKind::kFlagLower, now_us, iter);
    }
  }

  void stop_decided() {
    if (!on()) return;
    slot_->owner.assert_held();
    slot_->instant(obs::TraceKind::kStop, timer_->seconds() * 1e6);
  }

  /// kSellCS only: one dense ghost-buffer refresh happened (one racy read
  /// per distinct ghost column; kGhostReads still counts the per-entry
  /// gather volume those refreshes replace, via read_mix).
  void ghost_refresh() { add(obs::Counter::kGhostRefreshes, 1); }

 private:
  obs::ActorSlot* slot_;  ///< null without a registry
  const WallTimer* timer_;
  double t0_us_ = 0.0;
  double tr0_us_ = 0.0;
  double seen_stall_us_ = 0.0;
  std::uint64_t retries_ = 0;
  std::size_t seen_faults_ = 0;
  bool flag_up_ = false;
};

/// Per-actor beacon publisher over this actor's EventRing, built from a
/// possibly-null hub; without one every hook returns at once. It claims
/// the ring via the hub's one-ring-per-actor contract; a publish is
/// wait-free and touches nothing shared but the ring, so the observed
/// solve's memory traffic gains only a strided handful of atomic stores.
class StreamPublisher {
 public:
  StreamPublisher(obs::TelemetryHub* hub, index_t actor,
                  const WallTimer& timer)
      : ring_(hub != nullptr ? &hub->ring(actor) : nullptr),
        timer_(&timer),
        stride_(hub != nullptr
                    ? std::max<index_t>(1, hub->options().beacon_stride)
                    : 1) {}

  /// True when a hub is attached.
  [[nodiscard]] bool on() const { return ring_ != nullptr; }

  /// Beacon on every stride-th iteration (iter is 1-based here: the call
  /// sites beacon after `++iter`).
  void beacon(index_t iter, index_t rows, double own_norm) {
    if (!on() || iter % stride_ != 0) return;
    publish(iter, rows, own_norm);
  }

  /// Final beacon at loop exit, so the monitor always sees the terminal
  /// state; skipped when the last iteration already published at stride.
  void finish(index_t iter, index_t rows, double own_norm) {
    if (!on() || iter == last_iter_ || iter <= 0) return;
    publish(iter, rows, own_norm);
  }

 private:
  /// The shared runtime draws no rows, so policy_draws stays 0.
  void publish(index_t iter, index_t rows, double own_norm) {
    obs::Beacon b;
    b.ts_us = timer_->seconds() * 1e6;
    b.iteration = iter;
    b.relaxations =
        static_cast<std::uint64_t>(iter) * static_cast<std::uint64_t>(rows);
    b.own_residual_1 = own_norm;
    ring_->writer.assert_held();
    ring_->publish(b);
    last_iter_ = iter;
  }

  obs::EventRing* ring_;  ///< null without a hub
  const WallTimer* timer_;
  index_t stride_;
  index_t last_iter_ = 0;
};

/// What one actor hands the post-join tail when it retires.
template <class Point>
struct ActorOutcome {
  index_t iterations = 0;  ///< local iterations run
  index_t rows = 0;        ///< rows relaxed per iteration
  std::vector<Point> history;
  std::vector<model::RelaxationEvent> events;  ///< traced runs only
  fault::FaultLog faults;
};

/// The input checks solve_shared and solve_mesh share. A NaN tolerance
/// would never be met, so the solve would silently run to max_iterations;
/// <= 0 keeps its meaning of "iteration cap only". The debug invariant
/// layer audits the inputs in full (compiled out in release builds).
template <class Options>
void check_solve_inputs(const CsrMatrix& a, const Vector& b, const Vector& x0,
                        const Options& o) {
  AJAC_CHECK(a.num_rows() == a.num_cols());
  AJAC_CHECK(b.size() == static_cast<std::size_t>(a.num_rows()));
  AJAC_CHECK(x0.size() == static_cast<std::size_t>(a.num_rows()));
  AJAC_CHECK(o.max_iterations >= 1);
  AJAC_CHECK_MSG(!std::isnan(o.tolerance),
                 "tolerance is NaN (use <= 0 for the iteration cap only)");
  AJAC_DBG_VALIDATE(validate::csr_structure(
      a, {.require_sorted_rows = true, .require_diagonal = true,
          .require_finite = true, .require_square = true}));
  AJAC_DBG_VALIDATE(validate::finite(b, "b"));
  AJAC_DBG_VALIDATE(validate::finite(x0, "x0"));
}

/// The state every actor step of one solve shares, built after the
/// runtime's prologue (the Terminator needs r0's norm, and the clock
/// starts here), and the post-join tail. `opts` is the runtime's
/// SharedOptions or MeshOptions; `hub` its telemetry sink, or null.
template <class Transport>
struct ActorTeam {
  using Point = typename Transport::Point;
  using Options = typename Transport::Options;

  ActorTeam(index_t actors, double r0_norm, const Options& o,
            obs::TelemetryHub* hub)
      : term(actors, r0_norm, o.tolerance, o.max_iterations),
        outcomes(static_cast<std::size_t>(actors)),
        opts(o),
        stream(hub) {}

  /// The post-join tail, once the runtime's epilogue has put the final
  /// iterate in result.x and its residual b - A x in `r`: the verified
  /// residual and polish, then the actors' outcomes merged in actor order.
  template <class Result>
  void finish(const CsrMatrix& a, const Vector& b,
              std::span<const double> inv_diag, std::span<double> r,
              Result& result, std::vector<index_t>& iterations) {
    const PolishOutcome fin = verify_and_polish(
        a, b, inv_diag, term.r0_norm(), opts.tolerance, opts.final_polish,
        polish_budget(static_cast<index_t>(outcomes.size())), result.x, r);
    result.final_rel_residual_1 = fin.rel_residual_1;
    result.polish_sweeps = fin.sweeps;
    result.converged = fin.converged;
    if (opts.metrics != nullptr) {
      // On actor 0's slot: the polish sweeps and their span (from the end
      // of the parallel phase), then the span of the whole solve. The
      // actors are gone, so the calling thread owns slot 0.
      obs::ActorSlot& slot0 = opts.metrics->actor(0);
      slot0.owner.assert_held();
      const double end_us = timer.seconds() * 1e6;
      if (fin.sweeps > 0) {
        slot0.add(obs::Counter::kPolishSweeps,
                  static_cast<std::uint64_t>(fin.sweeps));
        slot0.span(obs::TraceKind::kPolish, result.seconds * 1e6, end_us,
                   fin.sweeps);
      }
      slot0.span(obs::TraceKind::kSolve, 0.0, end_us);
    }
    // Per-row trace order is preserved: every row has one writing actor
    // (the mesh traces disjoint row sets only), and each actor appended
    // its events in execution order.
    if (opts.record_trace) result.trace.emplace(a.num_rows());
    for (const ActorOutcome<Point>& o : outcomes) {
      iterations.push_back(o.iterations);
      result.total_relaxations += o.iterations * o.rows;
      result.history.insert(result.history.end(), o.history.begin(),
                            o.history.end());
      if (opts.record_trace) {
        for (const auto& e : o.events) result.trace->add_event(e);
      }
      result.fault_events.insert(result.fault_events.end(), o.faults.begin(),
                                 o.faults.end());
    }
    std::sort(result.history.begin(), result.history.end(),
              [](const Point& p1, const Point& p2) {
                return p1.seconds < p2.seconds;
              });
    fault::canonicalize(result.fault_events);
  }

  Terminator term;
  WallTimer timer;
  std::vector<ActorOutcome<Point>> outcomes;  ///< one slot per actor
  const Options& opts;
  obs::TelemetryHub* stream;
};

/// One actor of a solve. Built on the actor's own thread, so the transport
/// first-touches its arrays there; movable, so a test can hold P of them.
template <class Transport>
class ActorStep {
 public:
  using Point = typename Transport::Point;

  template <class... Args>
  ActorStep(ActorTeam<Transport>& team, index_t actor, Args&&... args)
      : team_(&team),
        actor_(actor),
        metrics_(team.opts.metrics, actor, team.timer),
        stream_(team.stream, actor, team.timer),
        transport_(std::forward<Args>(args)...) {
    if (team.opts.record_history) {
      // Reserve outside the timed loop: a reallocating push_back inside the
      // relaxation loop would stall this actor mid-run and perturb the
      // asynchronous interleaving being measured. Actors park once they
      // reach max_iterations, so the local iteration count (and therefore
      // the history) is bounded by it exactly.
      history_.reserve(static_cast<std::size_t>(team.opts.max_iterations));
    }
  }

  /// False once the stop has latched.
  [[nodiscard]] bool live() const { return !team_->term.stopped(); }

  /// Up to lockstep point 1: the fault schedule and ghost refresh, then
  /// relax the own rows and publish their partial norm before the point,
  /// so that in lockstep every reader sums the same iteration's partials.
  void stage() {
    metrics_.iteration_begin();
    transport_.begin(iter_, metrics_);
    metrics_.sync_faults(transport_.schedule());
    partial_ = transport_.relax(iter_, metrics_);
    team_->term.publish_partial(actor_, partial_);
    transport_.send(iter_);
  }

  /// Up to lockstep point 2: complete the exchange, then the convergence
  /// check — the P published partials summed in actor order (racy reads
  /// of other actors' slots, the paper's scheme aggregated in O(P)).
  void settle() {
    transport_.receive(iter_, metrics_);
    ++iter_;
    metrics_.residual_check_begin();
    const double rel = team_->term.racy_rel();
    metrics_.residual_check_end();
    if (team_->opts.record_history) {
      // `rel` sums racy relaxed reads of partials that interleave with
      // other actors' publications: this point records the residual *as
      // this actor saw it*, not a consistent global norm. The serial
      // post-run check (final_rel_residual_1) is the trustworthy value.
      history_.push_back({team_->timer.seconds(), actor_, iter_, rel});
    }
    metrics_.flag_update(team_->term.flag(actor_, iter_, rel), iter_);
  }

  /// Up to lockstep point 3, which keeps lockstep: every actor passes the
  /// same number of points and sees the verified stop decision together.
  void decide() {
    if (team_->term.poll(actor_, iter_,
                         [this] { return transport_.fresh(); })) {
      metrics_.stop_decided();
    }
  }

  void close() {
    metrics_.iteration_end(iter_ - 1, transport_.rows());
    stream_.beacon(iter_, transport_.rows(), partial_);
    // The one yield rule. Asynchronous actors yield only while ahead of
    // the slowest: a sched_yield puts the caller behind every runnable
    // task on its core, so a laggard sharing a core with another busy
    // process would run one iteration per time slice while the others ran
    // to the cap.
    if (team_->opts.yield && live() &&
        (team_->opts.synchronous || team_->term.ahead_of_slowest(iter_))) {
      sched_yield();
    }
  }

  /// One free-running pass: at the cap, park (poll without relaxing, see
  /// terminator.hpp); else the four phases back to back.
  void step() {
    if (team_->term.at_cap(iter_)) {
      if (team_->term.park(actor_, iter_,
                           [this] { return transport_.fresh(); })) {
        metrics_.stop_decided();
      }
      return;
    }
    stage();
    settle();
    decide();
    close();
  }

  /// Run to the stop: step() when free-running; in lockstep each phase,
  /// then `gate()` (the runtime's barrier), three times over. Park is
  /// unreachable in lockstep: the flags all rise at the cap iteration and
  /// the poll latches the stop before re-entry.
  template <class Gate>
  void run(Gate&& gate) {
    if (!team_->opts.synchronous) {
      while (live()) step();
      return;
    }
    while (live()) {
      stage();
      gate();
      settle();
      gate();
      decide();
      gate();
      close();
    }
  }

  /// After the loop: the terminal beacon (the monitor always sees this
  /// actor's final state even when the last iteration missed the stride),
  /// the last iteration's fault instants, and this actor's outcome.
  void retire() {
    stream_.finish(iter_, transport_.rows(), partial_);
    metrics_.sync_faults(transport_.schedule());
    ActorOutcome<Point>& out =
        team_->outcomes[static_cast<std::size_t>(actor_)];
    out.iterations = iter_;
    out.rows = transport_.rows();
    out.history = std::move(history_);
    transport_.retire(out, metrics_);
  }

 private:
  ActorTeam<Transport>* team_;
  index_t actor_;
  index_t iter_ = 0;
  double partial_ = 0.0;  ///< the last published partial, also the beacon
  MetricsRecorder metrics_;
  StreamPublisher stream_;
  std::vector<Point> history_;
  Transport transport_;
};

}  // namespace ajac::runtime::detail
