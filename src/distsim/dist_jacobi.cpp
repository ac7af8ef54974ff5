#include "ajac/distsim/dist_jacobi.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>

#include "ajac/fault/actor_faults.hpp"
#include "ajac/obs/metrics.hpp"
#include "ajac/obs/stream.hpp"
#include "ajac/partition/partition.hpp"
#include "ajac/runtime/row_policy.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/validate.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "ajac/util/check.hpp"
#include "ajac/util/rng.hpp"

namespace ajac::distsim {

namespace {

struct Message {
  double arrival = 0.0;
  index_t sender = 0;
  index_t receiver = 0;
  index_t seq = 0;        ///< sender's iteration count when sent
  index_t link_index = 0; ///< index into receiver's neighbor list
  std::vector<double> values;
  /// Non-empty for row-level puts: ghost slots (receiver-local) written by
  /// `values`; empty = the whole link in recv_slots order.
  std::vector<index_t> slots;
  /// Per-value sender row versions (sampled policies under record_trace
  /// only): with sampled draws a rank's rows carry different relaxation
  /// counts, so `seq` alone no longer identifies which update of row j a
  /// ghost read consumed. Empty = every value carries `seq`.
  std::vector<index_t> versions;
};

struct MessageLater {
  bool operator()(const Message& x, const Message& y) const {
    if (x.arrival != y.arrival) return x.arrival > y.arrival;
    if (x.sender != y.sender) return x.sender > y.sender;
    return x.seq > y.seq;
  }
};

struct ProcessState {
  const LocalBlock* blk = nullptr;
  Vector x_local;        ///< owned values then ghost values
  Vector updates;        ///< scratch for the Jacobi commit
  Vector inv_diag;       ///< inverse diagonal of owned rows
  double speed = 1.0;    ///< persistent rate multiplier
  double time = 0.0;
  index_t iterations = 0;
  bool done = false;
  bool has_new_data = true;  ///< eager rule: fresh info since last relax
  double stop_at = 1e300;    ///< termination-detection stop arrival
  double busy_seconds = 0.0;
  double wait_seconds = 0.0;
  index_t messages_sent = 0;
  index_t messages_received = 0;
  index_t polls = 0;
  Rng rng{0};
  std::priority_queue<Message, std::vector<Message>, MessageLater> mailbox;
  /// Trace mode: version of each ghost slot (sender iteration count, or
  /// the sender's per-row relaxation count under a sampled policy).
  std::vector<index_t> ghost_version;
  /// Sampled policies: the rank's per-row relaxation-draw stream.
  std::optional<runtime::RowSampler> sampler;
  /// Trace mode + sampled policy: per-owned-row relaxation counts (the
  /// per-row analogue of `iterations`). Never reset — the Sec. IV trace
  /// model needs monotone counters even across crash recovery.
  std::vector<index_t> own_version;
  std::vector<model::RelaxationEvent> events;
  /// Highest seq applied per neighbor link (ordered_delivery / stats).
  std::vector<index_t> last_seq;
  /// Reverse map: neighbor process id -> index in blk->neighbors.
  std::vector<std::pair<index_t, index_t>> link_of_sender;  // sorted pairs

  [[nodiscard]] index_t find_link(index_t sender) const {
    const auto it = std::lower_bound(
        link_of_sender.begin(), link_of_sender.end(),
        std::make_pair(sender, index_t{-1}));
    AJAC_DCHECK(it != link_of_sender.end() && it->first == sender);
    return it->second;
  }
};

double lognormal(Rng& rng, double sigma) {
  return sigma > 0.0 ? std::exp(sigma * rng.normal()) : 1.0;
}

/// One local Jacobi iteration on the block: all owned rows read the same
/// pre-iteration x_local (owned + ghosts), then commit. Returns the
/// pre-update local residual 1-norm (the quantity a rank would report to
/// a termination-detection reduction).
double relax_block(ProcessState& ps, std::span<const double> b_local) {
  const LocalBlock& blk = *ps.blk;
  const index_t m = blk.num_owned();
  double local_norm = 0.0;
  for (index_t i = 0; i < m; ++i) {
    double acc = b_local[i];
    for (index_t p = blk.row_ptr[i]; p < blk.row_ptr[i + 1]; ++p) {
      acc -= blk.values[p] * ps.x_local[blk.col_idx[p]];
    }
    local_norm += std::abs(acc);
    ps.updates[i] = ps.x_local[i] + ps.inv_diag[i] * acc;
  }
  std::copy(ps.updates.begin(), ps.updates.begin() + m, ps.x_local.begin());
  return local_norm;
}

/// One forward Gauss-Seidel pass within the block: owned rows update in
/// place (later rows see earlier rows' new values); ghosts are whatever
/// the mailbox delivered. Jager & Bradley's inexact block Jacobi.
double relax_block_gs(ProcessState& ps, std::span<const double> b_local) {
  const LocalBlock& blk = *ps.blk;
  const index_t m = blk.num_owned();
  double local_norm = 0.0;
  for (index_t i = 0; i < m; ++i) {
    double acc = b_local[i];
    for (index_t p = blk.row_ptr[i]; p < blk.row_ptr[i + 1]; ++p) {
      acc -= blk.values[p] * ps.x_local[blk.col_idx[p]];
    }
    local_norm += std::abs(acc);
    ps.x_local[i] += ps.inv_diag[i] * acc;
  }
  return local_norm;
}

double relax_dispatch(ProcessState& ps, std::span<const double> b_local,
                      InnerSweep sweep) {
  return sweep == InnerSweep::kJacobi ? relax_block(ps, b_local)
                                      : relax_block_gs(ps, b_local);
}

/// Sampled-policy local iteration: `num_owned` draws from the rank's
/// counter-based row stream, each relaxing its row in place (later draws
/// see earlier draws' values, like the shared runtime's sampled path).
/// When `record` is set, every draw logs a relaxation event whose owned
/// reads carry per-row relaxation counts (ps.own_version) rather than the
/// block iteration count. Returns the
/// post-sweep local residual 1-norm — draws may visit rows unevenly, so
/// the per-draw residuals do not sum to a block norm the way the sweeping
/// kernels' do; one exact pass keeps the termination-detection reports
/// honest.
double relax_block_sampled(ProcessState& ps, std::span<const double> b_local,
                           bool record) {
  const LocalBlock& blk = *ps.blk;
  const index_t m = blk.num_owned();
  const runtime::RowSampler& sampler = *ps.sampler;
  const index_t iter = ps.iterations;
  for (index_t slot = 0; slot < m; ++slot) {
    const index_t i = sampler.next(iter, slot);
    double acc = b_local[i];
    if (record) {
      model::RelaxationEvent event;
      event.row = blk.row_begin + i;
      for (index_t p = blk.row_ptr[i]; p < blk.row_ptr[i + 1]; ++p) {
        const index_t c = blk.col_idx[p];
        acc -= blk.values[p] * ps.x_local[c];
        if (c < m) {
          if (c == i) continue;
          event.reads.push_back({blk.row_begin + c, ps.own_version[c]});
        } else {
          event.reads.push_back(
              {blk.ghost_cols[c - m], ps.ghost_version[c - m]});
        }
      }
      ps.events.push_back(std::move(event));
      ++ps.own_version[i];
    } else {
      for (index_t p = blk.row_ptr[i]; p < blk.row_ptr[i + 1]; ++p) {
        acc -= blk.values[p] * ps.x_local[blk.col_idx[p]];
      }
    }
    ps.x_local[i] += ps.inv_diag[i] * acc;
  }
  double local_norm = 0.0;
  for (index_t i = 0; i < m; ++i) {
    double acc = b_local[i];
    for (index_t p = blk.row_ptr[i]; p < blk.row_ptr[i + 1]; ++p) {
      acc -= blk.values[p] * ps.x_local[blk.col_idx[p]];
    }
    local_norm += std::abs(acc);
  }
  return local_norm;
}

/// Time to compute the relaxation itself (the SpMV + correction). The
/// updated values become remotely visible after this — the put is issued
/// as soon as they exist.
double work_seconds(const ProcessState& ps, const CostModel& cost,
                    double jitter) {
  return cost.flop_time * static_cast<double>(ps.blk->num_nonzeros()) *
         jitter / ps.speed;
}

/// Per-iteration overhead paid *after* the values are published: the
/// convergence-norm read, flag checks, loop control. Dominates for small
/// subdomains, which is exactly why neighbor reads usually see the latest
/// version (Sec. VII-B's propagated-relaxation fractions).
double overhead_seconds(const ProcessState& ps, const CostModel& cost,
                        double jitter) {
  return cost.iteration_overhead * jitter / ps.speed;
}

double compute_seconds(const ProcessState& ps, const CostModel& cost,
                       double jitter) {
  return work_seconds(ps, cost, jitter) + overhead_seconds(ps, cost, jitter);
}

/// Per-rank fault-injection state. The specs are resolved once up front
/// (fault::resolve_actor, the lookup every runtime shares); decisions come
/// from the (stateless) FaultClock, so the simulator's RNGs are untouched
/// and a faulty run perturbs only what the plan names. Crashes, stragglers
/// and stale windows act in simulated time here, so they are applied by
/// the event loop rather than by fault::ActorFaults.
struct RankFaults {
  const fault::StragglerSpec* straggler = nullptr;
  const fault::StaleReadSpec* stale = nullptr;
  const fault::CrashSpec* crash = nullptr;
  bool straggler_on = false;
  bool stale_on = false;
  bool crashed = false;   ///< the crash fired (at most once)
  bool down = false;      ///< currently waiting out the dead window
  double dead_until = 0.0;
  /// Messages posted per neighbor link — the per-edge counter that keys
  /// drop/duplicate/reorder decisions.
  std::vector<index_t> sent_on_link;
  fault::FaultLog log;
};

}  // namespace

DistResult solve_distributed(const CsrMatrix& a, const Vector& b,
                             const Vector& x0,
                             const partition::Partition& part,
                             const DistOptions& opts) {
  AJAC_CHECK(a.num_rows() == a.num_cols());
  const index_t n = a.num_rows();
  AJAC_CHECK(b.size() == static_cast<std::size_t>(n));
  AJAC_CHECK(x0.size() == static_cast<std::size_t>(n));
  // O(P), and always on: a partition that skips or repeats rows would give
  // rows no owner (or two) in the local blocks built below.
  partition::validate(part, n);
  AJAC_CHECK(part.num_parts() == opts.num_processes);
  AJAC_CHECK(opts.max_iterations >= 1);
  AJAC_CHECK(opts.omega > 0.0);
  AJAC_CHECK_MSG(!opts.record_trace ||
                     opts.inner_sweep == InnerSweep::kJacobi,
                 "read-version traces assume the Jacobi inner sweep (all "
                 "owned rows read the same snapshot)");
  const bool sampled = runtime::is_sampled(opts.policy);
  AJAC_CHECK_MSG(!(sampled && opts.synchronous),
                 "sampled row policies relax in place and have no "
                 "synchronous meaning (asynchronous mode only)");
  AJAC_CHECK_MSG(!sampled || opts.inner_sweep == InnerSweep::kJacobi,
                 "sampled row policies define their own in-place schedule; "
                 "the Gauss-Seidel inner sweep does not compose with them");
  // A NaN tolerance would never be met, so the run would silently go to
  // max_iterations; <= 0 keeps its meaning of "iteration cap only".
  AJAC_CHECK_MSG(!std::isnan(opts.tolerance),
                 "tolerance is NaN (use <= 0 for the iteration cap only)");
  // FaultPlan's straggler rule: an unchecked factor below 1 or a process
  // outside [-1, P) would be dropped silently, an infinite one would set
  // the rank's speed to 0.
  AJAC_CHECK_MSG(opts.delayed_process >= -1 &&
                     opts.delayed_process < opts.num_processes,
                 "delayed_process " << opts.delayed_process
                                    << " out of range for "
                                    << opts.num_processes << " processes");
  AJAC_CHECK_MSG(std::isfinite(opts.delay_factor),
                 "delay_factor " << opts.delay_factor << " is not finite");
  AJAC_CHECK_MSG(opts.delay_factor >= 1.0,
                 "delay_factor " << opts.delay_factor << " < 1");
  AJAC_DBG_VALIDATE(validate::csr_structure(
      a, {.require_diagonal = true, .require_square = true}));
  AJAC_DBG_VALIDATE(validate::finite(b, "b"));
  AJAC_DBG_VALIDATE(validate::finite(x0, "x0"));

  const std::vector<LocalBlock> blocks = build_local_blocks(a, part);
  const index_t num_procs = opts.num_processes;
  Rng master(opts.seed);

  const fault::FaultPlan* plan =
      opts.fault_plan && !opts.fault_plan->empty() ? opts.fault_plan.get()
                                                   : nullptr;
  if (plan != nullptr) {
    AJAC_CHECK_MSG(!opts.synchronous,
                   "fault injection targets the asynchronous scheme (BSP "
                   "supersteps serialize every fault away)");
    fault::require_honoured(*plan, "solve_distributed",
                            {.message_faults = true, .message_reorder = true});
    plan->validate(num_procs);
  }
  const fault::FaultClock fclock(plan != nullptr ? plan->seed : 0);

  // Metrics are observation-only plain branches: the simulator is
  // single-threaded and deterministic in *simulated* time, so recording
  // cannot perturb the run (timestamps below are sim-time microseconds).
  obs::MetricsRegistry* const metrics = opts.metrics;
  if (metrics != nullptr) {
    metrics->set_actor_kind("rank");
    metrics->reset(num_procs,
                   static_cast<std::size_t>(opts.max_iterations) + 64);
  }
  // The simulation runs on a single thread, which therefore holds every
  // rank's SoleWriterRole; call sites bind the slot and claim it.
  auto slot = [&](index_t p) -> obs::ActorSlot& { return metrics->actor(p); };

  // Telemetry beacons (observation-only plain branches, like metrics):
  // per-rank progress samples stamped in simulated microseconds.
  obs::TelemetryHub* const stream = opts.stream;
  index_t stream_stride = 1;
  if (stream != nullptr) {
    stream->begin_run(num_procs, "rank", opts.tolerance, /*sim_time=*/true);
    stream_stride = std::max<index_t>(1, stream->options().beacon_stride);
  }

  // God's-eye state for residual snapshots: owners publish on commit.
  Vector x_global = x0;
  Vector r_scratch(static_cast<std::size_t>(n));
  a.residual(x_global, b, r_scratch);
  const double r0_1 = std::max(vec::norm1(r_scratch), 1e-300);
  const double r0_2 = std::max(vec::norm2(r_scratch), 1e-300);
  if (stream != nullptr) stream->set_residual_scale(r0_1);

  DistResult result;
  result.iterations_per_process.assign(static_cast<std::size_t>(num_procs),
                                       0);
  auto record = [&](double t, index_t relaxations) {
    a.residual(x_global, b, r_scratch);
    DistHistoryPoint pt;
    pt.sim_seconds = t;
    pt.relaxations = relaxations;
    pt.rel_residual_1 = vec::norm1(r_scratch) / r0_1;
    pt.rel_residual_2 = vec::norm2(r_scratch) / r0_2;
    result.history.push_back(pt);
    return pt.rel_residual_1;
  };

  // Initialize per-process state.
  std::vector<ProcessState> procs(static_cast<std::size_t>(num_procs));
  for (index_t p = 0; p < num_procs; ++p) {
    ProcessState& ps = procs[p];
    ps.blk = &blocks[p];
    ps.rng = master.split();
    ps.speed = lognormal(ps.rng, opts.cost.speed_sigma);
    if (p == opts.delayed_process) ps.speed /= opts.delay_factor;
    const index_t m = ps.blk->num_owned();
    ps.x_local.resize(static_cast<std::size_t>(m + ps.blk->num_ghosts()));
    ps.updates.resize(static_cast<std::size_t>(m));
    ps.inv_diag.resize(static_cast<std::size_t>(m));
    for (index_t i = 0; i < m; ++i) {
      ps.x_local[i] = x0[ps.blk->row_begin + i];
      const double d = a.at(ps.blk->row_begin + i, ps.blk->row_begin + i);
      AJAC_CHECK_MSG(d != 0.0,
                     "zero diagonal at row " << ps.blk->row_begin + i);
      ps.inv_diag[i] = opts.omega / d;
    }
    for (index_t g = 0; g < ps.blk->num_ghosts(); ++g) {
      ps.x_local[m + g] = x0[ps.blk->ghost_cols[g]];
    }
    ps.last_seq.assign(ps.blk->neighbors.size(), 0);
    if (opts.record_trace) {
      ps.ghost_version.assign(
          static_cast<std::size_t>(ps.blk->num_ghosts()), 0);
    }
    if (sampled) {
      // Same coordinate discipline as the shared runtime: draws are a
      // deterministic function of (seed, rank, iteration, slot), so the
      // event interleaving cannot perturb them.
      ps.sampler.emplace(opts.policy, opts.seed, p, index_t{0}, m);
      if (opts.record_trace) {
        ps.own_version.assign(static_cast<std::size_t>(m), 0);
      }
    }
    for (std::size_t l = 0; l < ps.blk->neighbors.size(); ++l) {
      ps.link_of_sender.emplace_back(ps.blk->neighbors[l].neighbor,
                                     static_cast<index_t>(l));
    }
    std::sort(ps.link_of_sender.begin(), ps.link_of_sender.end());
  }

  std::vector<RankFaults> rank_faults(
      plan != nullptr ? static_cast<std::size_t>(num_procs) : 0);
  if (plan != nullptr) {
    for (index_t p = 0; p < num_procs; ++p) {
      RankFaults& rf = rank_faults[p];
      rf.sent_on_link.assign(procs[p].blk->neighbors.size(), 0);
      const fault::ActorSpecs specs = fault::resolve_actor(*plan, p);
      rf.straggler = specs.straggler;
      rf.stale = specs.stale;
      rf.crash = specs.crash;
    }
  }

  // Publish one beacon for rank p. The one simulation thread is the sole
  // writer of every ring; own_norm_1 is the rank's own-block residual
  // 1-norm (absolute — the monitor divides by residual_scale).
  auto publish_beacon = [&](index_t p, double sim_seconds,
                            double own_norm_1) {
    obs::EventRing& ring = stream->ring(p);
    ring.writer.assert_held();
    const ProcessState& ps = procs[p];
    const auto m = static_cast<std::uint64_t>(ps.blk->num_owned());
    obs::Beacon bcn;
    bcn.ts_us = sim_seconds * 1e6;
    bcn.iteration = ps.iterations;
    bcn.relaxations = static_cast<std::uint64_t>(ps.iterations) * m;
    bcn.own_residual_1 = own_norm_1;
    bcn.policy_draws =
        sampled ? static_cast<std::uint64_t>(ps.iterations) * m : 0;
    ring.publish(bcn);
  };
  // Terminal beacon: own-block residual recomputed from the committed
  // global state (the rank may stop without having relaxed this event).
  auto publish_final_beacon = [&](index_t p, double sim_seconds) {
    if (stream == nullptr) return;
    const LocalBlock& blk = *procs[p].blk;
    double own = 0.0;
    for (index_t i = blk.row_begin; i < blk.row_begin + blk.num_owned();
         ++i) {
      double acc = b[i];
      const auto [cols, vals] = a.row(i);
      for (std::size_t q = 0; q < cols.size(); ++q) {
        acc -= vals[q] * x_global[cols[q]];
      }
      own += std::abs(acc);
    }
    publish_beacon(p, sim_seconds, own);
  };

  record(0.0, 0);

  const double avg_iter_time = [&] {
    double acc = 0.0;
    for (const auto& ps : procs) acc += compute_seconds(ps, opts.cost, 1.0);
    return acc / static_cast<double>(num_procs);
  }();
  const double snapshot_dt =
      opts.snapshot_dt > 0.0 ? opts.snapshot_dt : avg_iter_time;

  index_t relaxations = 0;

  if (opts.synchronous) {
    // ---- BSP supersteps: exchange, relax, barrier. ----
    double t = 0.0;
    for (index_t iter = 1; iter <= opts.max_iterations; ++iter) {
      // Ghost exchange: everyone reads the owners' previous-iteration
      // values (messages all complete inside the superstep).
      double max_comm = 0.0;
      for (ProcessState& ps : procs) {
        const index_t m = ps.blk->num_owned();
        for (index_t g = 0; g < ps.blk->num_ghosts(); ++g) {
          ps.x_local[m + g] = x_global[ps.blk->ghost_cols[g]];
        }
        double comm = 0.0;
        for (const NeighborLink& link : ps.blk->neighbors) {
          if (link.send_rows.empty()) continue;
          comm = std::max(
              comm, opts.cost.message_time(
                        8 * static_cast<index_t>(link.send_rows.size())));
        }
        max_comm = std::max(max_comm, comm);
      }
      // Relax everyone against the exchanged state.
      double max_compute = 0.0;
      double total_compute = 0.0;
      for (ProcessState& ps : procs) {
        relax_dispatch(ps,
                       std::span<const double>(
                           b.data() + ps.blk->row_begin,
                           static_cast<std::size_t>(ps.blk->num_owned())),
                       opts.inner_sweep);
        ++ps.iterations;
        relaxations += ps.blk->num_owned();
        const double c = compute_seconds(
            ps, opts.cost, lognormal(ps.rng, opts.cost.jitter_sigma));
        max_compute = std::max(max_compute, c);
        total_compute += c;
      }
      for (ProcessState& ps : procs) {
        std::copy(ps.x_local.begin(),
                  ps.x_local.begin() + ps.blk->num_owned(),
                  x_global.begin() + ps.blk->row_begin);
      }
      double compute_term = max_compute;
      if (opts.cost.cores > 0 && opts.cost.cores < num_procs) {
        compute_term = std::max(
            max_compute,
            total_compute / (static_cast<double>(opts.cost.cores) *
                             std::max(1.0, opts.cost.smt_factor)));
      }
      t += compute_term + max_comm + opts.cost.barrier_time(num_procs);
      const double rel = record(t, relaxations);
      const bool tol_hit = opts.tolerance > 0.0 && rel <= opts.tolerance;
      if (stream != nullptr && (iter % stream_stride == 0 || tol_hit ||
                                iter == opts.max_iterations)) {
        // record() just refreshed r_scratch from the committed state; the
        // per-rank own-block slices fall out of it directly.
        for (index_t p = 0; p < num_procs; ++p) {
          const LocalBlock& blk = *procs[p].blk;
          double own = 0.0;
          for (index_t i = blk.row_begin;
               i < blk.row_begin + blk.num_owned(); ++i) {
            own += std::abs(r_scratch[i]);
          }
          publish_beacon(p, t, own);
        }
      }
      if (tol_hit) {
        result.reached_tolerance = true;
        break;
      }
      if (!std::isfinite(rel)) break;
    }
    result.sim_seconds = t;
  } else {
    // ---- Event-driven asynchronous execution. ----
    using QueueEntry = std::pair<double, index_t>;  // (time, process)
    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<>>
        queue;
    {
      // Processes do not start in lockstep: thread/process launch skew
      // spreads the first iteration across roughly one iteration period.
      // Without this, neighboring ranks stay phase-locked into the same
      // "wave" every round and relax simultaneously forever — a resonance
      // real machines do not exhibit.
      const double oversub =
          (opts.cost.cores > 0 && opts.cost.cores < num_procs)
              ? static_cast<double>(num_procs) /
                    static_cast<double>(opts.cost.cores)
              : 1.0;
      Rng stagger_rng(opts.seed ^ 0x5eedULL);
      for (index_t p = 0; p < num_procs; ++p) {
        const double period = compute_seconds(procs[p], opts.cost, 1.0) * oversub;
        queue.emplace(stagger_rng.uniform() * period, p);
      }
    }
    // Core contention: processes queue for the earliest-free core. An
    // empty heap (cores == 0) means one core per process.
    std::priority_queue<double, std::vector<double>, std::greater<>>
        core_free;
    if (opts.cost.cores > 0 && opts.cost.cores < num_procs) {
      for (index_t c = 0; c < opts.cost.cores; ++c) core_free.push(0.0);
    }
    double next_snapshot = snapshot_dt;
    index_t in_flight = 0;
    double t_now = 0.0;
    bool stop = false;

    // Realistic termination detection (Termination::kNormReduction):
    // in-flight local-norm reports to rank 0, and rank 0's latest view.
    const bool detect =
        opts.termination == Termination::kNormReduction && opts.tolerance > 0.0;
    struct NormReport {
      double arrival;
      index_t sender;
      double value;
      bool operator>(const NormReport& o) const { return arrival > o.arrival; }
    };
    std::priority_queue<NormReport, std::vector<NormReport>, std::greater<>>
        reports;
    std::vector<double> latest_norm(static_cast<std::size_t>(num_procs),
                                    -1.0);

    // Every put goes through here: the plan's message faults act on the
    // (directed edge, per-edge counter) key, so the decision for "the k-th
    // put from s to r" is the same whatever the event interleaving.
    auto post_message = [&](ProcessState& src, index_t src_rank,
                            std::size_t link, ProcessState& dst, Message msg,
                            double base, double latency) {
      if (plan != nullptr && !plan->message_faults.empty()) {
        RankFaults& rf = rank_faults[src_rank];
        const index_t k = rf.sent_on_link[link]++;
        const std::uint64_t edge = directed_edge_key(src_rank, msg.receiver);
        const auto ku = static_cast<std::uint64_t>(k);
        for (const fault::MessageFaultSpec& s : plan->message_faults) {
          if ((s.sender >= 0 && s.sender != src_rank) ||
              (s.receiver >= 0 && s.receiver != msg.receiver)) {
            continue;
          }
          if (fclock.bernoulli(s.drop_probability,
                               fault::FaultClock::kMessageDrop, edge, ku)) {
            // The put was issued and died in the network: it counts as
            // sent but never as in flight (the eager rule's starvation
            // check is keyed on deliverable messages).
            rf.log.push_back({fault::FaultKind::kMessageDrop, src_rank, k,
                              msg.receiver, 0});
            if (metrics != nullptr) {
              obs::ActorSlot& sl = slot(src_rank);
              sl.owner.assert_held();  // one simulation thread owns every slot
              sl.add(obs::Counter::kMessagesDropped);
              sl.add(obs::Counter::kFaultEvents);
              sl.instant(obs::TraceKind::kMessageDrop, base * 1e6,
                                     msg.receiver);
            }
            ++result.dropped_messages;
            ++src.messages_sent;
            return;
          }
          if (fclock.bernoulli(s.reorder_probability,
                               fault::FaultClock::kMessageReorder, edge, ku)) {
            rf.log.push_back({fault::FaultKind::kMessageReorder, src_rank, k,
                              msg.receiver, 0});
            if (metrics != nullptr) {
              obs::ActorSlot& sl = slot(src_rank);
              sl.owner.assert_held();  // one simulation thread owns every slot
              sl.add(obs::Counter::kFaultEvents);
              sl.instant(obs::TraceKind::kMessageReorder,
                                     base * 1e6, msg.receiver);
            }
            latency *= s.reorder_latency_factor;
          }
          if (fclock.bernoulli(s.duplicate_probability,
                               fault::FaultClock::kMessageDuplicate, edge,
                               ku)) {
            rf.log.push_back({fault::FaultKind::kMessageDuplicate, src_rank,
                              k, msg.receiver, 0});
            if (metrics != nullptr) {
              obs::ActorSlot& sl = slot(src_rank);
              sl.owner.assert_held();  // one simulation thread owns every slot
              sl.add(obs::Counter::kMessagesDuplicated);
              sl.add(obs::Counter::kFaultEvents);
              sl.instant(obs::TraceKind::kMessageDuplicate,
                                     base * 1e6, msg.receiver);
            }
            Message dup = msg;
            dup.arrival = base + 2.0 * latency;  // the retransmitted copy
            dst.mailbox.push(std::move(dup));
            ++in_flight;
            ++src.messages_sent;
            ++result.duplicated_messages;
          }
          break;  // first matching spec governs the edge
        }
      }
      if (metrics != nullptr) {
        obs::ActorSlot& sl = slot(src_rank);
        sl.owner.assert_held();  // one simulation thread owns every slot
        sl.record(obs::Hist::kMessageLatencyUs,
                              static_cast<std::uint64_t>(latency * 1e6));
      }
      msg.arrival = base + latency;
      dst.mailbox.push(std::move(msg));
      ++in_flight;
      ++src.messages_sent;
    };

    while (!queue.empty() && !stop) {
      const auto [t, p] = queue.top();
      queue.pop();
      t_now = std::max(t_now, t);
      ProcessState& ps = procs[p];

      while (next_snapshot <= t_now) {
        const double rel = record(next_snapshot, relaxations);
        next_snapshot += snapshot_dt;
        // The oracle stop is only legitimate in oracle mode; under the
        // realistic protocol the ranks must discover convergence
        // themselves.
        if (opts.termination == Termination::kIterationCountOrOracle &&
            opts.tolerance > 0.0 && rel <= opts.tolerance) {
          result.reached_tolerance = true;
          stop = true;
          break;
        }
        if (!std::isfinite(rel)) stop = true;
      }
      if (stop) break;

      if (plan != nullptr) {
        RankFaults& rf = rank_faults[p];
        if (rf.down) {
          // Recovery: the rank resumes here. Messages that landed while it
          // was down are lost — its memory window vanished with it.
          rf.down = false;
          rf.log.push_back(
              {fault::FaultKind::kRecover, p, ps.iterations, 0, 0});
          if (metrics != nullptr) {
            obs::ActorSlot& sl = slot(p);
            sl.owner.assert_held();  // one simulation thread owns every slot
            sl.add(obs::Counter::kFaultEvents);
            sl.instant(obs::TraceKind::kRecover, t * 1e6, ps.iterations);
          }
          while (!ps.mailbox.empty() &&
                 ps.mailbox.top().arrival <= rf.dead_until) {
            ps.mailbox.pop();
            --in_flight;
            ++result.dropped_messages;
            if (metrics != nullptr) {
              obs::ActorSlot& sl = slot(p);
              sl.owner.assert_held();  // one simulation thread owns every slot
              sl.add(obs::Counter::kMessagesDropped);
            }
          }
          if (rf.crash->reset_state_on_recovery) {
            const index_t m = ps.blk->num_owned();
            for (index_t i = 0; i < m; ++i) {
              ps.x_local[i] = x0[ps.blk->row_begin + i];
            }
            for (index_t g = 0; g < ps.blk->num_ghosts(); ++g) {
              ps.x_local[m + g] = x0[ps.blk->ghost_cols[g]];
            }
            std::copy(ps.x_local.begin(), ps.x_local.begin() + m,
                      x_global.begin() + ps.blk->row_begin);
            std::fill(ps.last_seq.begin(), ps.last_seq.end(), 0);
            if (opts.record_trace) {
              std::fill(ps.ghost_version.begin(), ps.ghost_version.end(), 0);
            }
          }
          ps.has_new_data = true;  // a restarted rank relaxes immediately
        } else if (rf.crash != nullptr && !rf.crashed &&
                   ps.iterations >= rf.crash->crash_iteration) {
          rf.crashed = true;
          rf.down = true;
          rf.dead_until = t + rf.crash->dead_seconds;
          rf.log.push_back({fault::FaultKind::kCrash, p, ps.iterations, 0, 0});
          if (metrics != nullptr) {
            obs::ActorSlot& sl = slot(p);
            sl.owner.assert_held();  // one simulation thread owns every slot
            sl.add(obs::Counter::kFaultEvents);
            sl.instant(obs::TraceKind::kCrash, t * 1e6, ps.iterations);
          }
          queue.emplace(rf.dead_until, p);
          continue;
        }
      }

      // Acquire a core first: the relaxation *reads* its inputs when it
      // actually runs, not when the process became ready.
      double t_start = t;
      if (!core_free.empty()) {
        t_start = std::max(t, core_free.top());
        core_free.pop();
      }

      ps.wait_seconds += t_start - t;

      // Stale-read window: while active, the rank stops draining its
      // mailbox, so every relaxation inside the window reads the ghost
      // values frozen at window entry (arrived puts wait, they are not
      // lost). Keyed on the local iteration count, like the shared
      // runtime's window. Note: with the eager update rule a deferred
      // rank makes no iteration progress, so the window only ends via the
      // poll cap — combine stale windows with the racy rule.
      bool defer_delivery = false;
      if (plan != nullptr) {
        RankFaults& rf = rank_faults[p];
        if (rf.stale != nullptr) {
          const bool on = fault::duty_active(rf.stale->period, rf.stale->duty,
                                             ps.iterations);
          if (on && !rf.stale_on) {
            rf.log.push_back(
                {fault::FaultKind::kStaleWindowOn, p, ps.iterations, 0, 0});
            if (metrics != nullptr) {
              obs::ActorSlot& sl = slot(p);
              sl.owner.assert_held();  // one simulation thread owns every slot
              sl.add(obs::Counter::kFaultEvents);
              sl.instant(obs::TraceKind::kStaleWindowOn, t_start * 1e6,
                              ps.iterations);
            }
          }
          rf.stale_on = on;
          defer_delivery = on;
        }
      }

      // Deliver every message that has arrived by run time.
      if (metrics != nullptr && !defer_delivery) {
        // Pending puts (arrived or still in the network) at drain time.
        obs::ActorSlot& sl = slot(p);
        sl.owner.assert_held();  // one simulation thread owns every slot
        sl.record(obs::Hist::kQueueDepth, ps.mailbox.size());
      }
      while (!defer_delivery && !ps.mailbox.empty() &&
             ps.mailbox.top().arrival <= t_start) {
        const Message& msg = ps.mailbox.top();
        ++result.total_messages;
        ++ps.messages_received;
        --in_flight;
        if (metrics != nullptr) {
          // How many iterations the sender has advanced past this put: the
          // lag a ghost value carries when it lands.
          const index_t lag = procs[msg.sender].iterations - msg.seq;
          obs::ActorSlot& sl = slot(p);
          sl.owner.assert_held();  // one simulation thread owns every slot
          sl.record(obs::Hist::kGhostReadAge,
                         static_cast<std::uint64_t>(lag > 0 ? lag : 0));
        }
        const index_t link_idx = msg.link_index;
        const NeighborLink& link = ps.blk->neighbors[link_idx];
        const bool stale = msg.seq < ps.last_seq[link_idx];
        if (stale) ++result.reordered_messages;
        if (!(stale && opts.ordered_delivery)) {
          const index_t m = ps.blk->num_owned();
          const std::vector<index_t>& slots =
              msg.slots.empty() ? link.recv_slots : msg.slots;
          AJAC_DCHECK(msg.values.size() == slots.size());
          for (std::size_t k = 0; k < slots.size(); ++k) {
            ps.x_local[m + slots[k]] = msg.values[k];
            if (opts.record_trace) {
              ps.ghost_version[slots[k]] =
                  msg.versions.empty() ? msg.seq : msg.versions[k];
            }
          }
          ps.last_seq[link_idx] = std::max(ps.last_seq[link_idx], msg.seq);
          ps.has_new_data = true;
        }
        ps.mailbox.pop();
      }

      if (ps.stop_at <= t_start) {
        // Stop broadcast arrived: halt without relaxing further.
        ps.done = true;
        if (metrics != nullptr) {
          obs::ActorSlot& sl = slot(p);
          sl.owner.assert_held();  // one simulation thread owns every slot
          sl.instant(obs::TraceKind::kStop, t_start * 1e6,
                          ps.iterations);
        }
        publish_final_beacon(p, t_start);
        result.iterations_per_process[p] = ps.iterations;
        if (opts.cost.cores > 0 && opts.cost.cores < num_procs) {
          core_free.push(t_start);
        }
        continue;
      }

      if (detect && p == 0) {
        // Rank 0 folds in every report that has arrived by now and checks
        // the (stale) global sum against the tolerance.
        while (!reports.empty() && reports.top().arrival <= t_start) {
          latest_norm[reports.top().sender] = reports.top().value;
          reports.pop();
        }
        bool have_all = true;
        double sum = 0.0;
        for (double v : latest_norm) {
          if (v < 0.0) {
            have_all = false;
            break;
          }
          sum += v;
        }
        if (have_all && sum / r0_1 <= opts.tolerance &&
            !result.termination_detected) {
          result.termination_detected = true;
          result.detection_sim_seconds = t_start;
          result.detection_claimed_residual = sum / r0_1;
          a.residual(x_global, b, r_scratch);
          result.detection_true_residual = vec::norm1(r_scratch) / r0_1;
          if (metrics != nullptr) {
            obs::ActorSlot& sl = slot(0);
            sl.owner.assert_held();  // one simulation thread owns every slot
            sl.instant(obs::TraceKind::kDetection, t_start * 1e6);
          }
          // Tree broadcast of the stop: log2(P) latency hops.
          const double bcast =
              opts.cost.message_time(8) *
              std::max(1.0, std::log2(static_cast<double>(num_procs)));
          for (ProcessState& q : procs) {
            q.stop_at = std::min(q.stop_at, t_start + bcast);
          }
        }
      }

      if (opts.update_rule == UpdateRule::kEager && !ps.has_new_data) {
        // Poll: advance to the next arrival or spin one overhead quantum.
        // Polling does not hold the core.
        if (opts.cost.cores > 0 && opts.cost.cores < num_procs) {
          core_free.push(t_start);
        }
        ++ps.polls;
        const bool starved =
            in_flight == 0 &&
            std::all_of(procs.begin(), procs.end(), [&](const ProcessState& o) {
              return o.done || &o == &ps;
            });
        if (starved || ps.polls > opts.max_iterations * 64) {
          ps.done = true;
          publish_final_beacon(p, t);
          result.iterations_per_process[p] = ps.iterations;
          continue;
        }
        const double wake =
            ps.mailbox.empty()
                ? t + opts.cost.iteration_overhead
                : std::max(t + opts.cost.iteration_overhead,
                           ps.mailbox.top().arrival);
        ps.time = wake;
        queue.emplace(wake, p);
        continue;
      }

      // Relax once.
      {
        const LocalBlock& blk = *ps.blk;
        const index_t m = blk.num_owned();
        for (index_t g = 0; g < blk.num_ghosts(); ++g) {
          ++result.total_ghost_reads;
          if (ps.x_local[m + g] != x_global[blk.ghost_cols[g]]) {
            ++result.stale_ghost_reads;
          }
        }
      }
      if (opts.record_trace && !sampled) {
        const LocalBlock& blk = *ps.blk;
        const index_t m = blk.num_owned();
        for (index_t i = 0; i < m; ++i) {
          model::RelaxationEvent event;
          event.row = blk.row_begin + i;
          for (index_t pp = blk.row_ptr[i]; pp < blk.row_ptr[i + 1]; ++pp) {
            const index_t c = blk.col_idx[pp];
            if (c < m) {
              const index_t global = blk.row_begin + c;
              if (global == event.row) continue;
              event.reads.push_back({global, ps.iterations});
            } else {
              event.reads.push_back(
                  {blk.ghost_cols[c - m], ps.ghost_version[c - m]});
            }
          }
          ps.events.push_back(std::move(event));
        }
      }
      const std::span<const double> b_local(
          b.data() + ps.blk->row_begin,
          static_cast<std::size_t>(ps.blk->num_owned()));
      const double local_norm =
          sampled ? relax_block_sampled(ps, b_local, opts.record_trace)
                  : relax_dispatch(ps, b_local, opts.inner_sweep);
      ++ps.iterations;
      ps.has_new_data = false;
      relaxations += ps.blk->num_owned();
      std::copy(ps.x_local.begin(), ps.x_local.begin() + ps.blk->num_owned(),
                x_global.begin() + ps.blk->row_begin);

      double jitter = lognormal(ps.rng, opts.cost.jitter_sigma);
      if (plan != nullptr) {
        RankFaults& rf = rank_faults[p];
        if (rf.straggler != nullptr) {
          // Duty window of the iteration just performed (0-based): while
          // active the whole iteration — work and overhead — is slowed.
          const index_t iter0 = ps.iterations - 1;
          const bool on = fault::duty_active(rf.straggler->period,
                                             rf.straggler->duty, iter0);
          if (on && !rf.straggler_on) {
            rf.log.push_back(
                {fault::FaultKind::kStragglerOn, p, iter0, 0, 0});
            if (metrics != nullptr) {
              obs::ActorSlot& sl = slot(p);
              sl.owner.assert_held();  // one simulation thread owns every slot
              sl.add(obs::Counter::kFaultEvents);
              sl.instant(obs::TraceKind::kStragglerOn, t_start * 1e6,
                              iter0);
            }
          }
          rf.straggler_on = on;
          if (on) jitter *= rf.straggler->delay_factor;
        }
      }
      const double t_visible = t_start + work_seconds(ps, opts.cost, jitter);
      const double t_done =
          t_visible + overhead_seconds(ps, opts.cost, jitter);
      ps.busy_seconds += t_done - t_start;
      if (opts.cost.cores > 0 && opts.cost.cores < num_procs) {
        // SMT: a contended core retires smt_factor iterations per
        // iteration-time, so it frees up earlier than the iteration ends.
        core_free.push(t_start +
                       (t_done - t_start) / std::max(1.0, opts.cost.smt_factor));
      }
      ps.time = t_done;
      if (metrics != nullptr) {
        obs::ActorSlot& sl = slot(p);
        sl.owner.assert_held();  // one simulation thread owns every slot
        sl.record(obs::Hist::kIterationUs,
                       static_cast<std::uint64_t>((t_done - t_start) * 1e6));
        sl.span(obs::TraceKind::kIteration, t_start * 1e6, t_done * 1e6,
                     ps.iterations - 1);
      }
      if (stream != nullptr && ps.iterations % stream_stride == 0) {
        publish_beacon(p, t_done, local_norm);
      }

      // Push boundary values to neighbors (RMA puts issued once the
      // values exist, landing after the network latency).
      const double work_span = t_visible - t_start;
      for (std::size_t l = 0; l < ps.blk->neighbors.size(); ++l) {
        const NeighborLink& link = ps.blk->neighbors[l];
        if (link.send_rows.empty()) continue;
        ProcessState& dst = procs[link.neighbor];
        const index_t dst_link = dst.find_link(p);
        if (opts.row_level_puts) {
          // One put per boundary row; its value becomes visible partway
          // through the compute window, at the moment that row's new
          // value was actually written.
          const LocalBlock& dst_blk = *dst.blk;
          const auto& recv_slots = dst_blk.neighbors[dst_link].recv_slots;
          const index_t m = ps.blk->num_owned();
          for (std::size_t k = 0; k < link.send_rows.size(); ++k) {
            const index_t local_row = link.send_rows[k] - ps.blk->row_begin;
            Message msg;
            msg.sender = p;
            msg.receiver = link.neighbor;
            msg.seq = ps.iterations;
            msg.link_index = dst_link;
            msg.values.push_back(ps.x_local[local_row]);
            msg.slots.push_back(recv_slots[k]);
            if (sampled && opts.record_trace) {
              msg.versions.push_back(ps.own_version[local_row]);
            }
            const double frac =
                static_cast<double>(local_row + 1) / static_cast<double>(m);
            const double latency =
                opts.cost.message_time(8) *
                lognormal(ps.rng, opts.cost.msg_jitter_sigma);
            post_message(ps, p, l, dst, std::move(msg),
                         t_start + frac * work_span, latency);
          }
          continue;
        }
        Message msg;
        msg.sender = p;
        msg.receiver = link.neighbor;
        msg.seq = ps.iterations;
        msg.values.reserve(link.send_rows.size());
        for (index_t row : link.send_rows) {
          msg.values.push_back(ps.x_local[row - ps.blk->row_begin]);
          if (sampled && opts.record_trace) {
            msg.versions.push_back(ps.own_version[row - ps.blk->row_begin]);
          }
        }
        const double latency =
            opts.cost.message_time(
                8 * static_cast<index_t>(link.send_rows.size())) *
            lognormal(ps.rng, opts.cost.msg_jitter_sigma);
        msg.link_index = dst_link;
        post_message(ps, p, l, dst, std::move(msg), t_visible, latency);
      }

      if (detect && ps.iterations % opts.detection_interval == 0) {
        if (p == 0) {
          latest_norm[0] = local_norm;  // the root reads its own norm free
        } else {
          reports.push(NormReport{
              t_visible + opts.cost.message_time(8) *
                              lognormal(ps.rng, opts.cost.msg_jitter_sigma),
              p, local_norm});
        }
      }

      if (ps.iterations >= opts.max_iterations) {
        ps.done = true;
        if (metrics != nullptr) {
          obs::ActorSlot& sl = slot(p);
          sl.owner.assert_held();  // one simulation thread owns every slot
          sl.add(obs::Counter::kFlagRaises);
          sl.instant(obs::TraceKind::kFlagRaise, t_done * 1e6,
                          ps.iterations);
        }
        if (stream != nullptr && ps.iterations % stream_stride != 0) {
          // Terminal beacon when the stride missed the last iteration.
          publish_beacon(p, t_done, local_norm);
        }
        result.iterations_per_process[p] = ps.iterations;
      } else {
        queue.emplace(t_done, p);
      }
    }
    // Drain: the run ends when the last in-flight iteration completes.
    for (const ProcessState& ps : procs) {
      t_now = std::max(t_now, ps.time);
    }
    result.sim_seconds = t_now;
    record(t_now, relaxations);
  }

  for (index_t p = 0; p < num_procs; ++p) {
    result.iterations_per_process[p] = procs[p].iterations;
  }
  if (metrics != nullptr) {
    // Aggregate counters once at the end — they are derivable from the
    // per-process state, so the hot loop never touches them.
    for (index_t p = 0; p < num_procs; ++p) {
      obs::ActorSlot& s = slot(p);
      s.owner.assert_held();  // one simulation thread owns every slot
      s.add(obs::Counter::kIterations,
            static_cast<std::uint64_t>(procs[p].iterations));
      s.add(obs::Counter::kRelaxations,
            static_cast<std::uint64_t>(procs[p].iterations) *
                static_cast<std::uint64_t>(procs[p].blk->num_owned()));
      s.add(obs::Counter::kMessagesSent,
            static_cast<std::uint64_t>(procs[p].messages_sent));
      s.add(obs::Counter::kMessagesReceived,
            static_cast<std::uint64_t>(procs[p].messages_received));
    }
  }
  if (!opts.synchronous) {
    result.rank_stats.resize(static_cast<std::size_t>(num_procs));
    for (index_t p = 0; p < num_procs; ++p) {
      RankStats& rs = result.rank_stats[p];
      rs.iterations = procs[p].iterations;
      rs.busy_seconds = procs[p].busy_seconds;
      rs.wait_seconds = procs[p].wait_seconds;
      rs.messages_sent = procs[p].messages_sent;
      rs.messages_received = procs[p].messages_received;
    }
  }
  result.total_relaxations = relaxations;
  for (const RankFaults& rf : rank_faults) {
    result.fault_events.insert(result.fault_events.end(), rf.log.begin(),
                               rf.log.end());
  }
  fault::canonicalize(result.fault_events);
  if (opts.record_trace && !opts.synchronous) {
    model::RelaxationTrace trace(n);
    for (const ProcessState& ps : procs) {
      for (const auto& e : ps.events) trace.add_event(e);
    }
    result.trace = std::move(trace);
  }
  result.x = x_global;
  a.residual(x_global, b, r_scratch);
  result.final_rel_residual_1 = vec::norm1(r_scratch) / r0_1;
  if (opts.tolerance > 0.0 &&
      result.final_rel_residual_1 <= opts.tolerance) {
    result.reached_tolerance = true;
  }
  return result;
}

}  // namespace ajac::distsim
