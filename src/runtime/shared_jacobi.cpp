#include "ajac/runtime/shared_jacobi.hpp"

#include <omp.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "ajac/fault/actor_faults.hpp"
#include "ajac/obs/metrics.hpp"
#include "ajac/obs/stream.hpp"
#include "ajac/runtime/blocked_kernels.hpp"
#include "ajac/runtime/sell_kernels.hpp"
#include "ajac/runtime/shared_vector.hpp"
#include "ajac/runtime/terminator.hpp"
#include "ajac/sparse/blocked_csr.hpp"
#include "ajac/sparse/sell_csr.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/validate.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "ajac/util/aligned.hpp"
#include "ajac/util/annotate.hpp"
#include "ajac/util/check.hpp"
#include "ajac/util/timer.hpp"
#include "solve_hooks.hpp"

namespace ajac::runtime {

namespace {

// The fault contexts (NullFaults/ActiveFaults), the metrics recorder and
// the telemetry publisher live in solve_hooks.hpp.
using detail::ActiveFaults;
using detail::MetricsRecorder;
using detail::NullFaults;
using detail::StreamPublisher;

/// Reference-kernel residual of row i, b_i - sum_j a_ij x_j in CSR entry
/// order, with x read through the fault context and a flipped entry read
/// corrupted. Every reference path (Jacobi, local Gauss-Seidel, sampled)
/// relaxes through this or its traced twin below.
template <class Faults>
double reference_residual(const CsrMatrix& a, const Vector& b,
                          const SharedVector& x, Faults& faults, index_t i) {
  double acc = b[i];
  const auto [cols, vals] = a.row(i);
  FlippedEntry flipped;
  bool has_flip = false;
  if constexpr (Faults::enabled) has_flip = faults.flip(i, cols, vals, flipped);
  for (std::size_t p = 0; p < cols.size(); ++p) {
    double aij = vals[p];
    if constexpr (Faults::enabled) {
      if (has_flip && flipped.entry == p) aij = flipped.value;
    }
    acc -= aij * faults.read(x, cols[p]);
  }
  return acc;
}

/// reference_residual with versioned reads: records each off-diagonal
/// read's (column, version) in `event` and its staleness in `metrics`.
template <class Faults>
double reference_residual_traced(const CsrMatrix& a, const Vector& b,
                                 const SharedVector& x, Faults& faults,
                                 MetricsRecorder& metrics, index_t iter,
                                 index_t i, model::RelaxationEvent& event) {
  event.row = i;
  double acc = b[i];
  const auto [cols, vals] = a.row(i);
  FlippedEntry flipped;
  bool has_flip = false;
  if constexpr (Faults::enabled) has_flip = faults.flip(i, cols, vals, flipped);
  event.reads.reserve(cols.size());
  for (std::size_t p = 0; p < cols.size(); ++p) {
    const index_t j = cols[p];
    double aij = vals[p];
    if constexpr (Faults::enabled) {
      if (has_flip && flipped.entry == p) aij = flipped.value;
    }
    const auto [value, version] =
        faults.read_versioned(x, j, metrics.retry_sink());
    acc -= aij * value;
    if (j == i) continue;
    metrics.staleness(iter, version);
    event.reads.push_back({j, version});
  }
  return acc;
}

/// Actor-parallel prologue: each thread first-touches and fills its own
/// rows of x (= x0) and `r0` (= b - A x0 row by row, the expression and
/// bits of CsrMatrix::residual). On the layout path (Blocked) its block
/// computes them, reading only b and x0 on uniform runs, and reports the
/// zero diagonal its build found; the reference path reads the parent CSR
/// and fills 1 / a_ii into `inv_diag`. Its own region, with the same
/// thread-to-block map as the solve's, so a zero diagonal can be reported
/// by an exception after the join. Returns the first row whose diagonal
/// is missing or zero, or -1.
template <bool Blocked>
index_t fill_own_rows(const CsrMatrix& a, const BlockedCsr* blocked,
                      const Vector& b, const Vector& x0,
                      const partition::Partition& part, index_t threads,
                      SharedVector& x, UninitVector<double>& r0,
                      UninitVector<double>& inv_diag) {
  std::vector<index_t> zero_row(static_cast<std::size_t>(threads), -1);
  AJAC_TSAN_RELEASE(&zero_row);
#pragma omp parallel num_threads(static_cast<int>(threads))
  {
    AJAC_TSAN_ACQUIRE(&zero_row);
    const auto t = static_cast<index_t>(omp_get_thread_num());
    const index_t lo = part.part_begin(t);
    const index_t hi = part.part_end(t);
    // The partition makes this thread the sole writer of its rows.
    x.writer_role().assert_held();
    index_t& my_zero = zero_row[static_cast<std::size_t>(t)];
    for (index_t i = lo; i < hi; ++i) x.init(i, x0[i]);
    if constexpr (Blocked) {
      const BlockedCsr::Block& blk = blocked->block(t);
      const auto base = static_cast<std::size_t>(lo);
      my_zero = blk.zero_diag_row;
      sweep_block_residual(
          blk, b, x0.data() + lo, [&](index_t j) { return x0[j]; },
          [&](std::size_t li, double acc) { r0[base + li] = acc; });
    } else {
      for (index_t i = lo; i < hi; ++i) {
        r0[static_cast<std::size_t>(i)] =
            row_residual(a, i, b[i], [&](index_t j) { return x0[j]; });
        const double diag = a.at(i, i);
        if (diag == 0.0 && my_zero < 0) my_zero = i;
        inv_diag[static_cast<std::size_t>(i)] = 1.0 / diag;
      }
    }
    AJAC_TSAN_RELEASE(&zero_row);
  }
  AJAC_TSAN_ACQUIRE(&zero_row);
  for (const index_t row : zero_row) {
    if (row >= 0) return row;
  }
  return -1;
}

/// Actor-parallel epilogue after the stop: each thread copies its rows of
/// the shared x into `out` and writes their residual b - A x to `resid`
/// (CsrMatrix::residual's expression and bits), so the serial
/// verification only sums `resid`. On the layout path its block computes
/// the residual, own columns from its rows of `out`; the reference path
/// reads the parent CSR. Ghost columns come from the shared x: the blocked
/// actors published their private rows before the join, so x holds the
/// whole final iterate.
template <bool Blocked>
void collect_own_rows(const CsrMatrix& a, const BlockedCsr* blocked,
                      const Vector& b, const partition::Partition& part,
                      index_t threads, const SharedVector& x, Vector& out,
                      UninitVector<double>& resid) {
  AJAC_TSAN_RELEASE(&out);
#pragma omp parallel num_threads(static_cast<int>(threads))
  {
    AJAC_TSAN_ACQUIRE(&out);
    const auto t = static_cast<index_t>(omp_get_thread_num());
    const index_t lo = part.part_begin(t);
    const index_t hi = part.part_end(t);
    const auto shared = [&](index_t j) { return x.read(j); };
    for (index_t i = lo; i < hi; ++i) {
      out[static_cast<std::size_t>(i)] = x.read(i);
    }
    if constexpr (Blocked) {
      const auto base = static_cast<std::size_t>(lo);
      sweep_block_residual(
          blocked->block(t), b, out.data() + lo, shared,
          [&](std::size_t li, double acc) { resid[base + li] = acc; });
    } else {
      for (index_t i = lo; i < hi; ++i) {
        resid[static_cast<std::size_t>(i)] = row_residual(a, i, b[i], shared);
      }
    }
    AJAC_TSAN_RELEASE(&out);
  }
  AJAC_TSAN_ACQUIRE(&out);
}

// `sell` is the kSellCS data plane (null otherwise): a runtime pointer
// rather than a third template axis — the per-iteration `sell != nullptr`
// branch is noise next to an O(nnz) sweep. The metrics and telemetry hooks
// are runtime-null the same way (solve_hooks.hpp); only the fault context
// and the kernel family, whose hooks sit in the per-entry loops, are
// template axes.
template <class Faults, bool Blocked>
SharedResult solve_shared_impl(const CsrMatrix& a, const Vector& b,
                               const Vector& x0, const SharedOptions& opts,
                               const partition::Partition& part,
                               const fault::FaultPlan* plan,
                               const BlockedCsr* blocked, const SellCsr* sell) {
  const index_t n = a.num_rows();

  // No serial O(n) pass here: the vectors are allocated unfilled and
  // fill_own_rows writes every row from its owning thread. The blocked
  // kernels keep 1 / a_ii per block, so only the reference path builds
  // inv_diag.
  SharedVector x(n, opts.record_trace);
  UninitVector<double> resid(static_cast<std::size_t>(n));
  UninitVector<double> inv_diag(Blocked ? std::size_t{0}
                                        : static_cast<std::size_t>(n));
  const index_t zero_row = fill_own_rows<Blocked>(
      a, blocked, b, x0, part, opts.num_threads, x, resid, inv_diag);
  AJAC_CHECK_MSG(zero_row < 0, "zero diagonal at row " << zero_row);
  // r0's norm stays one serial row-order sum (vec::norm1), so the reported
  // relative residuals keep their bits.
  Terminator term(opts.num_threads, vec::norm1(resid), opts.tolerance,
                  opts.max_iterations);
  if (opts.stream != nullptr) {
    // Telemetry denominator for the monitor's global residual estimate;
    // single-threaded setup, before any beacon of this run.
    opts.stream->set_residual_scale(term.r0_norm());
  }

  SharedResult result;
  result.iterations_per_thread.assign(
      static_cast<std::size_t>(opts.num_threads), 0);
  std::vector<std::vector<SharedHistoryPoint>> histories(
      static_cast<std::size_t>(opts.num_threads));
  std::vector<std::vector<model::RelaxationEvent>> thread_events(
      static_cast<std::size_t>(opts.num_threads));
  std::vector<fault::FaultLog> fault_logs(
      static_cast<std::size_t>(opts.num_threads));

  WallTimer timer;

  // OpenMP fork/join synchronization happens inside libgomp (futexes TSan
  // cannot see); hand TSan the happens-before edges explicitly. Everything
  // crossing threads *inside* the region is std::atomic and needs nothing.
  AJAC_TSAN_RELEASE(&result);

#pragma omp parallel num_threads(static_cast<int>(opts.num_threads))
  {
    AJAC_TSAN_ACQUIRE(&result);
    const auto t = static_cast<index_t>(omp_get_thread_num());
    const index_t lo = part.part_begin(t);
    const index_t hi = part.part_end(t);
    const bool sampled = is_sampled(opts.policy);
    // Residuals of the own rows, by local row, seeded with the prologue's
    // r0 rows: the reference kernels' relax->commit carrier, the traced
    // and SELL kernels' record for the ascending partial-norm pass (they
    // relax rows out of order), and the sampled policies' latest residual
    // per row (a draw replaces its row's). The blocked Jacobi kernel
    // stages its corrections in the mirror's `next` slice and sums as it
    // goes, so it needs none.
    std::vector<double> local_r;
    if (!Blocked || opts.record_trace || sell != nullptr || sampled) {
      local_r.assign(resid.begin() + lo, resid.begin() + hi);
    }
    auto& my_history = histories[static_cast<std::size_t>(t)];
    auto& my_events = thread_events[static_cast<std::size_t>(t)];
    if (opts.record_history) {
      // Reserve outside the timed loop: a reallocating push_back inside the
      // relaxation loop would stall this thread mid-run and perturb the
      // asynchronous interleaving being measured. Threads park once they
      // reach max_iterations, so the local iteration count (and therefore
      // the history) is bounded by it exactly.
      my_history.reserve(static_cast<std::size_t>(opts.max_iterations));
    }
    Faults faults(a, x0, plan, t, lo, hi, x);
    MetricsRecorder metrics(opts.metrics, t, timer);
    StreamPublisher stream(opts.stream, t, timer);

    // Sampled row policies: per-thread sampler (no shared state; see
    // row_policy.hpp for the draw-coordinate discipline) and, when
    // instrumented, the per-row draw counts behind the row-selection-skew
    // metric (empty without a registry). Natural order pays for neither.
    std::optional<RowSampler> sampler;
    if (sampled) sampler.emplace(opts.policy, opts.policy_seed, t, lo, hi);
    std::vector<std::uint32_t> pick_counts;
    if (sampled && metrics.on()) {
      pick_counts.assign(static_cast<std::size_t>(hi - lo), 0);
    }

    // Blocked path: thread-private mirror of the own rows, allocated and
    // filled here so the owning thread first-touches its own pages.
    [[maybe_unused]] const BlockedCsr::Block* blk = nullptr;
    [[maybe_unused]] OwnBlockState own;
    // kSellCS path: SELL interior view plus the dense ghost buffer,
    // likewise allocated here for first touch.
    [[maybe_unused]] const SellCsr::Block* sblk = nullptr;
    std::vector<double> ghosts;

    // The partition makes this thread the sole writer of rows [lo, hi) of
    // x, and of its private mirror: claim the roles every protocol write
    // and kernel call below requires. Claims, not locks — ownership is
    // established by the partition, so there is nothing to acquire.
    x.writer_role().assert_held();
    own.owner.assert_held();

    if constexpr (Blocked) {
      blk = &blocked->block(t);
      refresh_own_block(*blk, x, own);
      if (sell != nullptr) {
        sblk = &sell->block(t);
        ghosts.assign(blk->ghost_cols.size(), 0.0);
      }
    }

    // This thread's share of a verification round (terminator.hpp): the
    // fresh residual 1-norm of its own rows, from the mirror and live
    // ghosts on the blocked path (the shared x lags on private rows), from
    // the shared x on the reference path.
    const auto own_fresh = [&] {
      if constexpr (Blocked) {
        own.owner.assert_held();
        return block_residual_1(*blk, b, own, x);
      } else {
        double norm = 0.0;
        for (index_t i = lo; i < hi; ++i) {
          norm += std::abs(
              row_residual(a, i, b[i], [&](index_t j) { return x.read(j); }));
        }
        return norm;
      }
    };

    index_t iter = 0;
    // This thread's last partial norm (terminator.hpp), also its beacon.
    double partial = 0.0;
    while (!term.stopped()) {
      if (term.at_cap(iter)) {  // parked (see terminator.hpp)
        if (term.park(t, iter, own_fresh)) metrics.stop_decided();
        continue;
      }
      metrics.iteration_begin();
      if constexpr (Faults::enabled) faults.begin_iteration(iter);
      if constexpr (Faults::enabled && Blocked) {
        // A crash recovery with state reset rewrote the shared x on the own
        // rows behind the mirror; reload it before any kernel reads
        // through it.
        if (faults.consume_state_reset()) reload_after_reset(*blk, x, own);
      }
      metrics.sync_faults(faults);

      // Step 1: residual on own rows from the shared (racy) x, and the
      // partial norm of those rows, published before the first barrier so
      // that in synchronous mode every reader sums the same iteration's
      // partials.
      if (sampled) {
        // Sampled policies: block-size in-place relaxations of drawn rows
        // (iteration counting, termination, and total_relaxations keep
        // their natural-order meaning).
        const index_t draws = hi - lo;
        for (index_t slot = 0; slot < draws; ++slot) {
          const index_t i = sampler->next(iter, slot);
          if (!pick_counts.empty()) {
            ++pick_counts[static_cast<std::size_t>(i - lo)];
          }
          double& ri = local_r[static_cast<std::size_t>(i - lo)];
          if constexpr (Blocked) {
            if (opts.record_trace) {
              ri = relax_row_sampled_traced(*blk, a, b, own, x, faults,
                                            metrics, iter, my_events, i);
            } else {
              ri = relax_row_in_place(*blk, a, b, own, x, faults, i);
            }
          } else {
            // In-place relaxation of the drawn row.
            double acc = 0.0;
            if (opts.record_trace) {
              model::RelaxationEvent event;
              acc = reference_residual_traced(a, b, x, faults, metrics, iter,
                                              i, event);
              my_events.push_back(std::move(event));
            } else {
              acc = reference_residual(a, b, x, faults, i);
            }
            ri = acc;
            x.write(i, x.read(i) + inv_diag[i] * acc);
          }
        }
        // Draws revisit rows in policy order: sum the partial afterwards.
        partial = vec::norm1(local_r);
      } else if (opts.local_gauss_seidel) {
        // In-place forward sweep: each row's update is visible to the
        // following rows (and to other threads) immediately.
        if constexpr (Blocked) {
          partial = relax_block_gs(*blk, a, b, own, x, faults);
        } else {
          partial = 0.0;
          for (index_t i = lo; i < hi; ++i) {
            const double acc = reference_residual(a, b, x, faults, i);
            partial += std::abs(acc);
            x.write(i, x.read(i) + inv_diag[i] * acc);
          }
        }
      } else if (opts.record_trace) {
        if constexpr (Blocked) {
          relax_traced(*blk, a, b, own, x, faults, metrics, iter, local_r,
                       my_events);
          partial = vec::norm1(local_r);
        } else {
          for (index_t i = lo; i < hi; ++i) {
            model::RelaxationEvent event;
            local_r[i - lo] = reference_residual_traced(
                a, b, x, faults, metrics, iter, i, event);
            my_events.push_back(std::move(event));
          }
        }
      } else {
        if constexpr (Blocked) {
          if (sell != nullptr) {
            // kSellCS: refresh the dense ghost buffer once, then relax the
            // SELL-packed interior and the buffered boundary.
            // Traces, GS, sampling and every fault but a straggler's
            // stall never reach this branch (rejected in solve_shared).
            refresh_ghosts(*blk, x, ghosts);
            metrics.ghost_refresh();
            relax_interior_sell(*sblk, *blk, b, own, local_r);
            relax_boundary_buffered(*blk, b, own, ghosts, local_r);
            partial = vec::norm1(local_r);
          } else {
            partial = relax_block(*blk, a, b, own, x, faults);
          }
        } else {
          for (index_t i = lo; i < hi; ++i) {
            local_r[i - lo] = reference_residual(a, b, x, faults, i);
          }
        }
      }
      if constexpr (Blocked) metrics.read_mix(blk->local_nnz, blk->ghost_nnz);
      if constexpr (!Blocked) {
        // The reference Jacobi step sums its partial in a separate
        // ascending pass over its residuals.
        if (!opts.local_gauss_seidel && !sampled) {
          partial = vec::norm1(local_r);
        }
      }
      term.publish_partial(t, partial);

      if (opts.synchronous) {
#pragma omp barrier
      }

      // Step 2: correct own rows (already done in-place for the GS sweep
      // and the sampled policies; the blocked kernels staged the values in
      // step 1 and only publish them here).
      if (!opts.local_gauss_seidel && !sampled) {
        if constexpr (Blocked) {
          commit_block(*blk, own, x);
        } else {
          for (index_t i = lo; i < hi; ++i) {
            x.write(i, x.read(i) + inv_diag[i] * local_r[i - lo]);
          }
        }
      }
      ++iter;

      // Step 3: convergence check — the P published partials summed in
      // thread order (racy reads of other threads' slots, the paper's
      // scheme aggregated in O(P)).
      metrics.residual_check_begin();
      const double rel = term.racy_rel();
      metrics.residual_check_end();
      if (opts.record_history) {
        // `rel` sums racy relaxed reads of partials that interleave with
        // other threads' publications: this point records the residual
        // *as this thread saw it*, not a consistent global norm. The serial
        // post-run check (final_rel_residual_1) is the trustworthy value.
        my_history.push_back({timer.seconds(), t, iter, rel});
      }
      const bool my_done = term.flag(t, iter, rel);
      metrics.flag_update(my_done, iter);

      if (opts.synchronous) {
#pragma omp barrier
      }
      if (term.poll(t, iter, own_fresh)) metrics.stop_decided();
      if (opts.synchronous) {
        // Keep lockstep: every thread must pass the same number of
        // barriers, and all see the verified stop decision together.
#pragma omp barrier
      }
      metrics.iteration_end(iter - 1, hi - lo);
      stream.beacon(iter, hi - lo, partial, sampled);
      // Asynchronous actors yield only while ahead of the slowest: a
      // sched_yield puts the caller behind every runnable task on its
      // core, so a laggard sharing a core with another busy process would
      // run one iteration per time slice while the others ran to the cap.
      if (opts.yield && !term.stopped() &&
          (opts.synchronous || term.ahead_of_slowest(iter))) {
        sched_yield();
      }
    }
    if constexpr (Blocked) publish_private_rows(*blk, own, x);
    // Terminal beacon: the monitor always sees this thread's final state
    // even when the last iteration missed the stride.
    stream.finish(iter, hi - lo, partial, sampled);
    result.iterations_per_thread[static_cast<std::size_t>(t)] = iter;
    metrics.policy_counts(pick_counts);
    if constexpr (Faults::enabled) {
      fault_logs[static_cast<std::size_t>(t)] = faults.take_log();
    }
    AJAC_TSAN_RELEASE(&result);
  }
  AJAC_TSAN_ACQUIRE(&result);

  result.seconds = timer.seconds();
  result.x.resize(static_cast<std::size_t>(n));
  collect_own_rows<Blocked>(a, blocked, b, part, opts.num_threads, x,
                            result.x, resid);

  const PolishOutcome fin = verify_and_polish(
      a, b, inv_diag, term.r0_norm(), opts.tolerance, opts.final_polish,
      polish_budget(opts.num_threads), result.x, resid);
  result.final_rel_residual_1 = fin.rel_residual_1;
  result.polish_sweeps = fin.sweeps;
  result.converged = fin.converged;
  detail::record_solve_end(opts.metrics, timer, result.seconds, fin.sweeps);
  for (index_t t = 0; t < opts.num_threads; ++t) {
    result.total_relaxations +=
        result.iterations_per_thread[static_cast<std::size_t>(t)] *
        part.part_size(t);
  }

  for (auto& h : histories) {
    result.history.insert(result.history.end(), h.begin(), h.end());
  }
  std::sort(result.history.begin(), result.history.end(),
            [](const SharedHistoryPoint& p1, const SharedHistoryPoint& p2) {
              return p1.seconds < p2.seconds;
            });

  if (opts.record_trace) {
    model::RelaxationTrace trace(n);
    // Per-row order is preserved because each row belongs to one thread
    // and threads append their events in execution order.
    for (const auto& events : thread_events) {
      for (const auto& e : events) trace.add_event(e);
    }
    result.trace = std::move(trace);
  }
  if constexpr (Faults::enabled) {
    for (auto& log : fault_logs) {
      result.fault_events.insert(result.fault_events.end(), log.begin(),
                                 log.end());
    }
    fault::canonicalize(result.fault_events);
  }
  return result;
}

/// Fold the runtime kernel choice into the compile-time Blocked flag, so
/// the fault dispatch below stays a flat 2x2.
template <class Faults>
SharedResult dispatch_kernel(const CsrMatrix& a, const Vector& b,
                             const Vector& x0, const SharedOptions& opts,
                             const partition::Partition& part,
                             const fault::FaultPlan* plan,
                             const BlockedCsr* blocked, const SellCsr* sell) {
  if (blocked != nullptr) {
    return solve_shared_impl<Faults, true>(a, b, x0, opts, part, plan,
                                           blocked, sell);
  }
  return solve_shared_impl<Faults, false>(a, b, x0, opts, part, plan, nullptr,
                                          nullptr);
}

}  // namespace

SharedResult solve_shared(const CsrMatrix& a, const Vector& b,
                          const Vector& x0, const SharedOptions& opts) {
  const std::int64_t faults_at_entry =
      opts.metrics != nullptr ? detail::process_minor_faults() : 0;
  AJAC_CHECK(a.num_rows() == a.num_cols());
  const index_t n = a.num_rows();
  AJAC_CHECK(b.size() == static_cast<std::size_t>(n));
  AJAC_CHECK(x0.size() == static_cast<std::size_t>(n));
  AJAC_CHECK(opts.num_threads >= 1);
  AJAC_CHECK(opts.max_iterations >= 1);
  // A NaN tolerance would never be met, so the solve would silently run to
  // max_iterations; <= 0 keeps its meaning of "iteration cap only".
  AJAC_CHECK_MSG(!std::isnan(opts.tolerance),
                 "tolerance is NaN (use <= 0 for the iteration cap only)");
  AJAC_CHECK_MSG(!(opts.local_gauss_seidel && opts.synchronous),
                 "the in-place local sweep is only meaningful without "
                 "barriers (asynchronous mode)");
  AJAC_CHECK_MSG(!(opts.local_gauss_seidel && opts.record_trace),
                 "read-version traces assume the Jacobi local sweep");
  AJAC_CHECK_MSG(!(is_sampled(opts.policy) && opts.synchronous),
                 "sampled row policies relax in place and have no "
                 "synchronous meaning (asynchronous mode only)");
  AJAC_CHECK_MSG(!(is_sampled(opts.policy) && opts.local_gauss_seidel),
                 "sampled row policies define their own in-place schedule; "
                 "local_gauss_seidel does not compose with them");
  const bool sellcs = opts.kernel == KernelKind::kSellCS;
  AJAC_CHECK_MSG(!(sellcs && opts.record_trace),
                 "kSellCS amortizes ghost reads into per-iteration buffer "
                 "refreshes; per-read version traces need kBlocked or "
                 "kReference");
  AJAC_CHECK_MSG(!(sellcs && opts.local_gauss_seidel),
                 "the in-place local sweep reads its own fresh updates "
                 "row-by-row; the SELL repack relaxes rows out of order "
                 "(use kBlocked)");
  AJAC_CHECK_MSG(!(sellcs && is_sampled(opts.policy)),
                 "sampled row policies relax drawn rows in place; the SELL "
                 "interior relaxes whole chunks (use kBlocked)");

  const partition::Partition part =
      opts.partition.value_or(partition::contiguous_partition(
          n, opts.num_threads));
  // O(P), and always on: a caller partition that skips or repeats rows
  // would leave rows of the unfilled vectors never written.
  partition::validate(part, n);
  AJAC_CHECK(part.num_parts() == opts.num_threads);

  // Debug invariant layer: full structural audit of the inputs before the
  // threads start (compiled out in release builds).
  AJAC_DBG_VALIDATE(validate::csr_structure(
      a, {.require_sorted_rows = true, .require_diagonal = true,
          .require_finite = true, .require_square = true}));
  AJAC_DBG_VALIDATE(validate::finite(b, "b"));
  AJAC_DBG_VALIDATE(validate::finite(x0, "x0"));

  const fault::FaultPlan* plan =
      opts.fault_plan && !opts.fault_plan->empty() ? opts.fault_plan.get()
                                                   : nullptr;
  if (plan != nullptr) {
    // A straggler's stall is the cost the paper measures, in both modes
    // and on every kernel: it acts at the top of an iteration and touches
    // no read. Every other fault kind acts on reads or on the iterate.
    const bool stragglers_only =
        plan->stale_reads.empty() && plan->message_faults.empty() &&
        plan->bit_flips.empty() && plan->crashes.empty();
    AJAC_CHECK_MSG(!opts.synchronous || stragglers_only,
                   "fault injection targets the asynchronous runtime (the "
                   "synchronous barriers serialize every fault away)");
    AJAC_CHECK_MSG(!sellcs || stragglers_only,
                   "fault injection is defined per shared read; the kSellCS "
                   "buffered data plane amortizes those reads away (use "
                   "kBlocked)");
    plan->validate(opts.num_threads);
    fault::require_honoured(*plan, "solve_shared", {.bit_flips = true});
  }

  obs::MetricsRegistry* metrics = opts.metrics;
  if (metrics != nullptr) {
    metrics->set_actor_kind("thread");
    // Hint: one iteration span per local iteration plus a handful of
    // instants; reserving here keeps the timed loop reallocation-free.
    metrics->reset(opts.num_threads,
                   static_cast<std::size_t>(opts.max_iterations) + 64);
  }

  // The blocked layout is built once per solve, before the threads start
  // (its constructor runs its own first-touch parallel fill). Construction
  // is O(nnz) with a binary search only on ghost entries.
  std::optional<BlockedCsr> blocked_a;
  if (opts.kernel != KernelKind::kReference) {
    blocked_a.emplace(a, std::span<const index_t>(part.block_starts));
  }
  const BlockedCsr* blocked = blocked_a ? &*blocked_a : nullptr;

  // kSellCS addition: the SELL interior repack (boundary rows keep
  // relaxing through the blocked layout), built before the threads start.
  std::optional<SellCsr> sell_a;
  if (sellcs) sell_a.emplace(*blocked_a);
  const SellCsr* sell = sell_a ? &*sell_a : nullptr;

  if (opts.stream != nullptr) {
    opts.stream->begin_run(opts.num_threads, "thread", opts.tolerance,
                           /*sim_time=*/false);
  }

  // Faults x kernel dispatch: the fault hooks compile to no-ops without a
  // plan, so the unfaulted path is exactly the plain solver.
  SharedResult result =
      plan != nullptr
          ? dispatch_kernel<ActiveFaults>(a, b, x0, opts, part, plan, blocked,
                                          sell)
          : dispatch_kernel<NullFaults>(a, b, x0, opts, part, nullptr,
                                        blocked, sell);
  detail::record_minor_faults(metrics, faults_at_entry);
  return result;
}

SharedBatchResult solve_shared_batch(const CsrMatrix& a, const MultiVector& b,
                                     const MultiVector& x0,
                                     const SharedOptions& opts) {
  const index_t n = a.num_rows();
  const index_t k = b.num_cols();
  AJAC_CHECK(b.num_rows() == n && x0.num_rows() == n);
  AJAC_CHECK(k >= 1);
  AJAC_CHECK_MSG(x0.num_cols() == k,
                 "b and x0 must carry the same number of columns");
  AJAC_CHECK_MSG(!opts.record_trace,
                 "read-version traces are single-RHS only (use solve_shared "
                 "for Sec. IV trace runs)");
  AJAC_CHECK_MSG(!opts.record_history,
                 "per-thread residual histories are single-RHS only; batch "
                 "runs report per-column results instead");
  // Checked up front so a rejected plan names this entry point, not the
  // first column's solve_shared.
  if (opts.fault_plan && !opts.fault_plan->empty()) {
    fault::require_honoured(*opts.fault_plan, "solve_shared_batch",
                            {.bit_flips = true});
  }

  SharedBatchResult result;
  result.x = MultiVector(n, k);
  for (index_t c = 0; c < k; ++c) {
    const SharedResult col = solve_shared(a, b.column(c), x0.column(c), opts);
    result.x.set_column(c, col.x);
    result.converged.push_back(col.converged);
    result.final_rel_residual_1.push_back(col.final_rel_residual_1);
    result.polish_sweeps.push_back(col.polish_sweeps);
    result.stop_iteration.push_back(*std::max_element(
        col.iterations_per_thread.begin(), col.iterations_per_thread.end()));
    result.relaxations_per_column.push_back(col.total_relaxations);
    result.seconds += col.seconds;
    result.total_relaxations += col.total_relaxations;
    result.iterations_per_thread.resize(col.iterations_per_thread.size());
    for (std::size_t t = 0; t < col.iterations_per_thread.size(); ++t) {
      result.iterations_per_thread[t] += col.iterations_per_thread[t];
    }
    result.fault_events.insert(result.fault_events.end(),
                               col.fault_events.begin(),
                               col.fault_events.end());
  }
  fault::canonicalize(result.fault_events);
  return result;
}

}  // namespace ajac::runtime
