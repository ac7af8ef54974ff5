// Batched (multi-RHS) shared-memory Jacobi: k independent systems sharing
// one matrix traversal (see solve_shared_batch in shared_jacobi.hpp).
//
// Control flow replicates solve_shared_impl (shared_jacobi.cpp) with every
// per-run scalar widened to k lanes; termination is the same Terminator
// with k columns (per-(thread, column) flags, a per-column verified stop),
// and a stopped column freezes. The bitwise contract — column c of a
// synchronous (or 1-thread asynchronous) batch equals the single-RHS solve
// of column c — rests on three invariants held throughout this file:
//
//   1. Per lane, every arithmetic expression (residual accumulation in CSR
//      entry order, `x + inv_diag * r`, the ascending-row partial norm of
//      the own rows and the actor-order sum of the partials, the
//      verification shares and their actor-order sum, the polish sweep)
//      is the scalar path's
//      expression evaluated on the same values in the same order.
//   2. A column freezes at exactly the iteration boundary where its
//      single-RHS run would have exited the while loop: the verified stop
//      of iteration m masks the column's commits from iteration m+1 on, so
//      its x never moves again (frozen lanes keep riding in the SIMD unit,
//      republishing identical bits).
//   3. Frozen columns are excluded from flags, verify, and the stop
//      decision, so the remaining columns' control flow is unaffected by
//      how many neighbors already converged.

#include <omp.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ajac/fault/actor_faults.hpp"
#include "ajac/obs/metrics.hpp"
#include "ajac/obs/stream.hpp"
#include "ajac/runtime/blocked_kernels.hpp"
#include "ajac/runtime/row_policy.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "ajac/runtime/shared_multi_vector.hpp"
#include "ajac/runtime/terminator.hpp"
#include "ajac/sparse/blocked_csr.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/multi_vector.hpp"
#include "ajac/sparse/validate.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "ajac/util/annotate.hpp"
#include "ajac/util/check.hpp"
#include "ajac/util/timer.hpp"
#include "solve_hooks.hpp"

namespace ajac::runtime {

namespace {

using ActiveFaults = detail::ActiveFaults<SharedMultiVector>;
using detail::MetricsRecorder;
using detail::NullFaults;
using detail::StreamPublisher;

/// Reference-kernel residual row of row i into out[0, k): b_i - sum_j a_ij
/// x_j per lane, entries in CSR order, x rows read through the fault
/// context (`xrow` is their k-wide buffer) and a flipped entry read
/// corrupted in every lane. The Jacobi and the sampled reference paths
/// both relax through it.
template <class Faults>
void reference_residual_row(const CsrMatrix& a, const MultiVector& b,
                            const SharedMultiVector& x, Faults& faults,
                            index_t i, double* out, std::span<double> xrow) {
  const index_t k = b.num_cols();
  const auto [cols, vals] = a.row(i);
  const double* br = b.row(i);
#pragma omp simd
  for (index_t c = 0; c < k; ++c) out[c] = br[c];
  FlippedEntry flipped;
  bool has_flip = false;
  if constexpr (Faults::enabled) has_flip = faults.flip(i, cols, vals, flipped);
  for (std::size_t p = 0; p < cols.size(); ++p) {
    double aij = vals[p];
    if constexpr (Faults::enabled) {
      if (has_flip && flipped.entry == p) aij = flipped.value;
    }
    faults.read_row(x, cols[p], xrow);
#pragma omp simd
    for (index_t c = 0; c < k; ++c) {
      out[c] -= aij * xrow[static_cast<std::size_t>(c)];
    }
  }
}

template <class Faults, bool Blocked>
SharedBatchResult solve_shared_batch_impl(
    const CsrMatrix& a, const MultiVector& b, const MultiVector& x0,
    const SharedOptions& opts, const partition::Partition& part,
    const Vector& inv_diag, const fault::FaultPlan* plan,
    const BlockedCsr* blocked) {
  const index_t n = a.num_rows();
  const index_t k = b.num_cols();
  const auto k_sz = static_cast<std::size_t>(k);

  SharedMultiVector x(n, k, /*traced=*/false);
  SharedMultiVector r(n, k, /*traced=*/false);
  // Single-threaded setup: this thread is momentarily the sole writer of
  // both shared vectors (the workers have not been forked yet).
  x.writer_role().assert_held();
  r.writer_role().assert_held();
  x.init(x0);
  MultiVector r0(n, k);
  mv::residual(a, x0, b, r0);
  r.init(r0);
  // Per-column r0 norm, bitwise the scalar path's (mv::colwise_norm1 sums
  // rows ascending, exactly vec::norm1 of the column).
  Vector r0_norm1(k_sz);
  mv::colwise_norm1(r0, r0_norm1);
  Terminator term(opts.num_threads, std::move(r0_norm1), opts.tolerance,
                  opts.max_iterations);

  SharedBatchResult result;
  result.iterations_per_thread.assign(
      static_cast<std::size_t>(opts.num_threads), 0);
  result.relaxations_per_column.assign(k_sz, 0);
  std::vector<std::vector<index_t>> col_relax(
      static_cast<std::size_t>(opts.num_threads));
  std::vector<fault::FaultLog> fault_logs(
      static_cast<std::size_t>(opts.num_threads));

  WallTimer timer;

  // Fork/join happens-before edges for TSan (libgomp futexes are invisible
  // to it); everything crossing threads inside the region is std::atomic.
  AJAC_TSAN_RELEASE(&result);

#pragma omp parallel num_threads(static_cast<int>(opts.num_threads))
  {
    AJAC_TSAN_ACQUIRE(&result);
    const auto t = static_cast<index_t>(omp_get_thread_num());
    const index_t lo = part.part_begin(t);
    const index_t hi = part.part_end(t);
    const index_t rows = hi - lo;
    const double delay =
        opts.delay_us.empty() ? 0.0
                              : opts.delay_us[static_cast<std::size_t>(t)];

    // All per-iteration scratch is sized here, before the loop: the hot
    // path performs no allocation (the per-column partial norms in
    // particular accumulate in the hoisted `partials` buffer).
    std::vector<double> active(k_sz, 1.0);  ///< 1.0 = column still converging
    std::vector<double> partials(k_sz, 0.0);
    std::vector<double> acc(k_sz, 0.0);
    std::vector<double> ghost(k_sz, 0.0);
    std::vector<double> rrow(k_sz, 0.0);
    std::vector<double> xrow(k_sz, 0.0);
    auto& my_col_relax = col_relax[static_cast<std::size_t>(t)];
    my_col_relax.assign(k_sz, 0);
    // Relax->commit carrier for the reference kernels (batch analogue of
    // local_r); the blocked kernels publish residual rows inline instead.
    MultiVector local_r(Blocked ? 0 : rows, k);

    Faults faults(a, x0, plan, t, lo, hi, x);
    MetricsRecorder metrics(opts.metrics, t, timer);
    StreamPublisher stream(opts.stream, t, timer);

    // Sampled row-selection policy: per-thread counter-based stream over
    // the own rows, same (policy_seed, thread, iter, slot) coordinates as
    // the single-RHS path — k = 1 batch runs draw the same rows bitwise.
    const bool sampled = is_sampled(opts.policy);
    std::optional<RowSampler> sampler;
    // Scratch for the weighted refresh: lane-max |true residual| of each
    // own row, first pass of the stencil-smoothed weights (see below).
    std::vector<double> snapshot_r;
    if (sampled) {
      sampler.emplace(opts.policy, opts.policy_seed, t, lo, hi,
                      opts.weight_refresh);
      if (opts.policy == RowPolicy::kResidualWeighted) {
        snapshot_r.assign(static_cast<std::size_t>(rows), 0.0);
      }
    }
    // Per-row draw counts for the row-selection-skew metric (empty
    // without a registry).
    std::vector<std::uint32_t> pick_counts;
    if (sampled && metrics.on()) {
      pick_counts.assign(static_cast<std::size_t>(rows), 0);
    }

    [[maybe_unused]] const BlockedCsr::Block* blk = nullptr;
    [[maybe_unused]] OwnBlockBatchState own;

    // The partition makes this thread the sole writer of rows [lo, hi) of
    // x and r, and of its private mirror: claim the roles every protocol
    // write and kernel call below requires (claims, not locks).
    x.writer_role().assert_held();
    r.writer_role().assert_held();
    own.owner.assert_held();

    if constexpr (Blocked) {
      blk = &blocked->block(t);
      refresh_own_block_batch(*blk, x, own);
    }

    // This thread's share of column c's verification round
    // (terminator.hpp): the fresh residual 1-norm of its own rows of the
    // column, from the shared x, which every commit writes in full.
    const auto own_fresh = [&](index_t c) {
      double norm = 0.0;
      for (index_t i = lo; i < hi; ++i) {
        norm += std::abs(row_residual(a, i, b(i, c),
                                      [&](index_t j) { return x.read(j, c); }));
      }
      return norm;
    };

    index_t iter = 0;
    double last_own_rel = 0.0;
    while (!term.stopped()) {
      if (term.at_cap(iter)) {  // parked (see terminator.hpp)
        if (term.park(t, iter, own_fresh)) metrics.stop_decided();
        continue;
      }
      metrics.iteration_begin();
      if (delay > 0.0) {
        spin_wait_us(delay);
        metrics.spin_wait(delay);
      }
      if constexpr (Faults::enabled) faults.begin_iteration(iter);
      if constexpr (Faults::enabled && Blocked) {
        if (faults.consume_state_reset()) refresh_own_block_batch(*blk, x, own);
      }
      metrics.sync_faults(faults);

      // Refresh the freeze mask. Column latches only ever go 0 -> 1, so a
      // racy read is safe: once a thread observes a column stopped it stays
      // stopped (observing it late keeps the lane riding, republishing
      // identical bits, one more pass). In synchronous mode the latches
      // happen before the previous iteration's closing barrier, so all
      // threads flip the mask together — the alignment the bitwise
      // contract needs.
      index_t active_cols = 0;
      for (index_t c = 0; c < k; ++c) {
        const bool on = !term.column_stopped(c);
        active[static_cast<std::size_t>(c)] = on ? 1.0 : 0.0;
        active_cols += on ? 1 : 0;
      }

      // Step 1: batched residual on own rows from the shared (racy) x.
      // All k lanes are computed, frozen ones included — a frozen lane
      // recomputes its (already final) residual from a frozen column,
      // which costs nothing extra and keeps the SIMD loop maskless.
      if (sampled) {
        // Sampled policies relax in place: each draw recomputes row i's
        // residual and commits the masked correction immediately, so the
        // separate step-2 commit below is skipped. Draw count per local
        // iteration equals the block size, keeping the iteration /
        // relaxation bookkeeping identical to the sweeping kernels.
        if (sampler->refresh_due(iter)) {
          // Two passes, mirroring the single-RHS refresh: lane-max |true
          // residual| of each own row recomputed from an x snapshot (not
          // the published r, whose pre-update values go stale under
          // in-place draws), then the stencil-smoothed weight (|A| |r|)_i
          // over the own block — see row_policy.hpp. Reads bypass fault
          // injection: the policy stream must not consume fault decisions.
          for (index_t i = lo; i < hi; ++i) {
            const auto [cols, vals] = a.row(i);
            const double* br = b.row(i);
            for (index_t c = 0; c < k; ++c) {
              rrow[static_cast<std::size_t>(c)] = br[c];
            }
            for (std::size_t p = 0; p < cols.size(); ++p) {
              x.read_row(cols[p], xrow);
              for (index_t c = 0; c < k; ++c) {
                rrow[static_cast<std::size_t>(c)] -=
                    vals[p] * xrow[static_cast<std::size_t>(c)];
              }
            }
            double m = 0.0;
            for (index_t c = 0; c < k; ++c) {
              m = std::max(m, std::abs(rrow[static_cast<std::size_t>(c)]));
            }
            snapshot_r[static_cast<std::size_t>(i - lo)] = m;
          }
          sampler->refresh_weights([&](index_t i) {
            const auto [cols, vals] = a.row(i);
            double w = 0.0;
            for (std::size_t p = 0; p < cols.size(); ++p) {
              const index_t j = cols[p];
              if (j >= lo && j < hi) {
                w += std::abs(vals[p]) *
                     snapshot_r[static_cast<std::size_t>(j - lo)];
              }
            }
            return w;
          });
          metrics.weight_refresh();
          stream.weight_refresh();
        }
        for (index_t slot = 0; slot < rows; ++slot) {
          const index_t i = sampler->next(iter, slot);
          if (!pick_counts.empty()) {
            ++pick_counts[static_cast<std::size_t>(i - lo)];
          }
          if constexpr (Blocked) {
            relax_row_sampled_batch(*blk, a, b, own, x, faults, r, active,
                                    acc, ghost, i);
          } else {
            reference_residual_row(a, b, x, faults, i, acc.data(), xrow);
            r.write_row(i, {acc.data(), k_sz});
            x.read_row(i, xrow);
            const double inv = inv_diag[i];
#pragma omp simd
            for (index_t c = 0; c < k; ++c) {
              const double nx = xrow[static_cast<std::size_t>(c)] +
                                inv * acc[static_cast<std::size_t>(c)];
              xrow[static_cast<std::size_t>(c)] =
                  active[static_cast<std::size_t>(c)] != 0.0
                      ? nx
                      : xrow[static_cast<std::size_t>(c)];
            }
            x.write_row(i, xrow);
          }
        }
      } else if constexpr (Blocked) {
        relax_interior_batch(*blk, a, b, own, faults, r, acc);
        relax_boundary_batch(*blk, a, b, own, x, faults, r, acc, ghost);
      } else {
        for (index_t i = lo; i < hi; ++i) {
          reference_residual_row(a, b, x, faults, i, local_r.row(i - lo),
                                 xrow);
        }
        for (index_t i = lo; i < hi; ++i) {
          r.write_row(i, {local_r.row(i - lo), k_sz});
        }
      }
      if constexpr (Blocked) metrics.read_mix(blk->local_nnz, blk->ghost_nnz);
      // Per-column partial norms of the own rows (rows ascending, bitwise
      // the scalar path's), published before the first barrier so that in
      // synchronous mode every reader sums the same iteration's partials.
      std::fill(partials.begin(), partials.end(), 0.0);
      for (index_t i = lo; i < hi; ++i) {
        r.read_row(i, rrow);
#pragma omp simd
        for (index_t c = 0; c < k; ++c) {
          partials[static_cast<std::size_t>(c)] +=
              std::abs(rrow[static_cast<std::size_t>(c)]);
        }
      }
      for (index_t c = 0; c < k; ++c) {
        term.publish_partial(t, c, partials[static_cast<std::size_t>(c)]);
      }

      if (opts.synchronous) {
#pragma omp barrier
      }

      // Step 2: correct own rows — masked per column (invariant 2). The
      // sampled policies already committed in place per draw.
      if (!sampled) {
        if constexpr (Blocked) {
          commit_block_batch(*blk, own, x, r, active, rrow);
        } else {
          for (index_t i = lo; i < hi; ++i) {
            x.read_row(i, xrow);
            const double* lr = local_r.row(i - lo);
            const double inv = inv_diag[i];
#pragma omp simd
            for (index_t c = 0; c < k; ++c) {
              const double nx =
                  xrow[static_cast<std::size_t>(c)] + inv * lr[c];
              xrow[static_cast<std::size_t>(c)] =
                  active[static_cast<std::size_t>(c)] != 0.0
                      ? nx
                      : xrow[static_cast<std::size_t>(c)];
            }
            x.write_row(i, xrow);
          }
        }
      }
      ++iter;
      for (index_t c = 0; c < k; ++c) {
        if (active[static_cast<std::size_t>(c)] != 0.0) {
          my_col_relax[static_cast<std::size_t>(c)] += rows;
        }
      }
      metrics.batch_iteration(rows, active_cols);

      if (stream.on()) {
        // Beacon value under kUpperBoundMax: worst still-relative lane,
        // max over columns of (own-block column norm / column r0 norm).
        double worst = 0.0;
        for (index_t c = 0; c < k; ++c) {
          worst = std::max(
              worst, partials[static_cast<std::size_t>(c)] / term.r0_norm(c));
        }
        last_own_rel = worst;
      }

      // Step 3: per-column convergence check — each column's P published
      // partials summed in thread order (racy reads, aggregated in O(P)).
      metrics.residual_check_begin();
      bool my_all_done = true;
      for (index_t c = 0; c < k; ++c) {
        if (active[static_cast<std::size_t>(c)] == 0.0) continue;
        const bool my_done = term.flag(t, iter, c, term.racy_rel(c));
        my_all_done = my_all_done && my_done;
      }
      metrics.residual_check_end();
      if (active_cols > 0) metrics.flag_update(my_all_done, iter);

      if (opts.synchronous) {
#pragma omp barrier
      }
      if (term.poll(t, iter, own_fresh)) metrics.stop_decided();
      if (opts.synchronous) {
        // Keep lockstep: every thread must pass the same number of
        // barriers, and all see the verified stop decisions together.
#pragma omp barrier
      }
      metrics.iteration_end(iter - 1, rows);
      stream.beacon(iter, rows, last_own_rel, sampled);
      if (opts.yield && !term.stopped()) sched_yield();
    }
    // Terminal beacon: the monitor always sees this thread's final state
    // even when the last iteration missed the stride.
    stream.finish(iter, rows, last_own_rel, sampled);
    result.iterations_per_thread[static_cast<std::size_t>(t)] = iter;
    metrics.policy_counts(pick_counts);
    if constexpr (Faults::enabled) {
      fault_logs[static_cast<std::size_t>(t)] = faults.take_log();
    }
    AJAC_TSAN_RELEASE(&result);
  }
  AJAC_TSAN_ACQUIRE(&result);

  result.seconds = timer.seconds();
  result.x = MultiVector(n, k);
  x.snapshot(result.x);

  // Per-column serial verification + polish, each column exactly the
  // single-RHS epilogue on its extracted column (invariant 1).
  index_t total_polish = 0;
  for (index_t c = 0; c < k; ++c) {
    Vector xc = result.x.column(c);
    const PolishOutcome fin = verify_and_polish(
        a, b.column(c), inv_diag, term.r0_norm(c), opts.tolerance,
        opts.final_polish, polish_budget(opts.num_threads), xc);
    if (fin.sweeps > 0) result.x.set_column(c, xc);
    result.final_rel_residual_1.push_back(fin.rel_residual_1);
    result.polish_sweeps.push_back(fin.sweeps);
    result.converged.push_back(fin.converged);
    result.stop_iteration.push_back(term.stop_iteration(c));
    total_polish += fin.sweeps;
  }
  detail::record_solve_end(opts.metrics, timer, result.seconds, total_polish);

  for (index_t c = 0; c < k; ++c) {
    index_t sum = 0;
    for (index_t t = 0; t < opts.num_threads; ++t) {
      sum += col_relax[static_cast<std::size_t>(t)][static_cast<std::size_t>(c)];
    }
    result.relaxations_per_column[static_cast<std::size_t>(c)] = sum;
    result.total_relaxations += sum;
    if (opts.metrics != nullptr) {
      obs::ActorSlot& sl = opts.metrics->actor(0);
      sl.owner.assert_held();  // post-join epilogue
      sl.record(obs::Hist::kColumnRelaxations,
                static_cast<std::uint64_t>(sum));
    }
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
/// the fault dispatch below stays a flat 2x2. The metrics and telemetry
/// hooks are runtime-null (solve_hooks.hpp), not template axes.
template <class Faults>
SharedBatchResult dispatch_batch_kernel(
    const CsrMatrix& a, const MultiVector& b, const MultiVector& x0,
    const SharedOptions& opts, const partition::Partition& part,
    const Vector& inv_diag, const fault::FaultPlan* plan,
    const BlockedCsr* blocked) {
  if (blocked != nullptr) {
    return solve_shared_batch_impl<Faults, true>(a, b, x0, opts, part,
                                                 inv_diag, plan, blocked);
  }
  return solve_shared_batch_impl<Faults, false>(a, b, x0, opts, part,
                                                inv_diag, plan, nullptr);
}

}  // namespace

SharedBatchResult solve_shared_batch(const CsrMatrix& a, const MultiVector& b,
                                     const MultiVector& x0,
                                     const SharedOptions& opts) {
  AJAC_CHECK(a.num_rows() == a.num_cols());
  const index_t n = a.num_rows();
  AJAC_CHECK(b.num_rows() == n && x0.num_rows() == n);
  AJAC_CHECK(b.num_cols() >= 1);
  AJAC_CHECK_MSG(b.num_cols() == x0.num_cols(),
                 "b and x0 must carry the same number of columns");
  AJAC_CHECK(opts.num_threads >= 1);
  AJAC_CHECK(opts.max_iterations >= 1);
  if (!opts.delay_us.empty()) {
    AJAC_CHECK(opts.delay_us.size() ==
               static_cast<std::size_t>(opts.num_threads));
  }
  AJAC_CHECK_MSG(!opts.record_trace,
                 "read-version traces are single-RHS only (the batch seqlock "
                 "is per row; use solve_shared for Sec. IV trace runs)");
  AJAC_CHECK_MSG(!opts.record_history,
                 "per-thread residual histories are single-RHS only; batch "
                 "runs report per-column results instead");
  AJAC_CHECK_MSG(!opts.local_gauss_seidel,
                 "the in-place local sweep has no batched kernel");
  AJAC_CHECK_MSG(!(is_sampled(opts.policy) && opts.synchronous),
                 "sampled row policies relax in place and have no "
                 "synchronous meaning (asynchronous mode only)");
  AJAC_CHECK_MSG(opts.weight_refresh >= 1,
                 "weight_refresh must be a positive iteration cadence");
  AJAC_CHECK_MSG(opts.kernel != KernelKind::kSellCS,
                 "the bandwidth-engineered kSellCS data plane has no batched "
                 "kernel (use kBlocked for multi-RHS runs)");

  const partition::Partition part =
      opts.partition.value_or(partition::contiguous_partition(
          n, opts.num_threads));
  // O(P), and always on: the reference kernels build no blocked layout
  // that would catch a partition skipping or repeating rows.
  partition::validate(part, n);
  AJAC_CHECK(part.num_parts() == opts.num_threads);

  AJAC_DBG_VALIDATE(validate::csr_structure(
      a, {.require_sorted_rows = true, .require_diagonal = true,
          .require_finite = true, .require_square = true}));
  AJAC_DBG_VALIDATE(validate::finite(b.raw(), "b"));
  AJAC_DBG_VALIDATE(validate::finite(x0.raw(), "x0"));

  Vector inv_diag = a.diagonal();
  for (index_t i = 0; i < n; ++i) {
    AJAC_CHECK_MSG(inv_diag[i] != 0.0, "zero diagonal at row " << i);
    inv_diag[i] = 1.0 / inv_diag[i];
  }

  const fault::FaultPlan* plan =
      opts.fault_plan && !opts.fault_plan->empty() ? opts.fault_plan.get()
                                                   : nullptr;
  if (plan != nullptr) {
    AJAC_CHECK_MSG(!opts.synchronous,
                   "fault injection targets the asynchronous runtime (the "
                   "synchronous barriers serialize every fault away)");
    plan->validate(opts.num_threads);
    fault::require_honoured(*plan, "solve_shared_batch", {.bit_flips = true});
  }

  obs::MetricsRegistry* metrics = opts.metrics;
  if (metrics != nullptr) {
    metrics->set_actor_kind("thread");
    metrics->reset(opts.num_threads,
                   static_cast<std::size_t>(opts.max_iterations) + 64);
  }

  std::optional<BlockedCsr> blocked_a;
  if (opts.kernel == KernelKind::kBlocked) {
    blocked_a.emplace(a, std::span<const index_t>(part.block_starts));
  }
  const BlockedCsr* blocked = blocked_a ? &*blocked_a : nullptr;

  if (opts.stream != nullptr) {
    opts.stream->begin_run(opts.num_threads, "thread", opts.tolerance,
                           obs::ResidualConvention::kUpperBoundMax,
                           /*sim_time=*/false);
  }

  if (plan != nullptr) {
    return dispatch_batch_kernel<ActiveFaults>(a, b, x0, opts, part, inv_diag,
                                               plan, blocked);
  }
  return dispatch_batch_kernel<NullFaults>(a, b, x0, opts, part, inv_diag,
                                           nullptr, blocked);
}

}  // namespace ajac::runtime
