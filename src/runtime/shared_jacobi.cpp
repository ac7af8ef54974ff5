#include "ajac/runtime/shared_jacobi.hpp"

#include <omp.h>

#include <algorithm>
#include <optional>
#include <span>

#include "ajac/fault/actor_faults.hpp"
#include "ajac/obs/metrics.hpp"
#include "ajac/obs/stream.hpp"
#include "ajac/sparse/blocked_csr.hpp"
#include "ajac/sparse/sell_csr.hpp"
#include "ajac/util/annotate.hpp"
#include "ajac/util/check.hpp"
#include "solve_hooks.hpp"

namespace ajac::runtime {

namespace {

using detail::ActiveFaults;
using detail::NullFaults;

// An OpenMP team runs one actor step per thread, with an OpenMP barrier as
// the lockstep gate. The fault context and the kernel family, whose hooks
// sit in the per-entry loops, are template axes.
template <class Faults, bool Blocked>
SharedResult solve_shared_impl(const detail::SharedInputs& in) {
  detail::SharedSolve<Faults, Blocked> solve(in);
  detail::on_team(in.opts.num_threads, [&](index_t t) {
    auto step = solve.actor(t);
    step.run([] {
#pragma omp barrier
    });
    step.retire();
  });
  return solve.finish();
}

/// Fold the runtime kernel choice into the compile-time Blocked flag, so
/// the fault dispatch below stays a flat 2x2.
template <class Faults>
SharedResult dispatch_kernel(const detail::SharedInputs& in) {
  if (in.blocked != nullptr) return solve_shared_impl<Faults, true>(in);
  return solve_shared_impl<Faults, false>(in);
}

}  // namespace

SharedResult solve_shared(const CsrMatrix& a, const Vector& b,
                          const Vector& x0, const SharedOptions& opts) {
  const std::int64_t faults_at_entry =
      opts.metrics != nullptr ? detail::process_minor_faults() : 0;
  detail::check_solve_inputs(a, b, x0, opts);
  const index_t n = a.num_rows();
  AJAC_CHECK(opts.num_threads >= 1);
  AJAC_CHECK_MSG(!(opts.local_gauss_seidel && opts.synchronous),
                 "the in-place local sweep is only meaningful without "
                 "barriers (asynchronous mode)");
  AJAC_CHECK_MSG(!(opts.local_gauss_seidel && opts.record_trace),
                 "read-version traces assume the Jacobi local sweep");
  const bool sellcs = opts.kernel == KernelKind::kSellCS;
  AJAC_CHECK_MSG(!(sellcs && opts.record_trace),
                 "kSellCS amortizes ghost reads into per-iteration buffer "
                 "refreshes; per-read version traces need kBlocked or "
                 "kReference");
  AJAC_CHECK_MSG(!(sellcs && opts.local_gauss_seidel),
                 "the in-place local sweep reads its own fresh updates "
                 "row-by-row; the SELL repack relaxes rows out of order "
                 "(use kBlocked)");

  const partition::Partition part =
      opts.partition.value_or(partition::contiguous_partition(
          n, opts.num_threads));
  // O(P), and always on: a caller partition that skips or repeats rows
  // would leave rows of the unfilled vectors never written.
  partition::validate(part, n);
  AJAC_CHECK(part.num_parts() == opts.num_threads);

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
  const detail::SharedInputs in{a, b, x0, opts, part, plan, blocked, sell};
  SharedResult result = plan != nullptr ? dispatch_kernel<ActiveFaults>(in)
                                        : dispatch_kernel<NullFaults>(in);
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
