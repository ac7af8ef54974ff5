#pragma once
// Internal header of the shared-memory solver (shared_jacobi.cpp): its
// fault contexts and its transport for the actor step
// (ajac/runtime/actor_step.hpp). Not installed: it lives next to the
// translation unit that includes it (the runtime tests reach it to step a
// solve on one thread) and is not part of the public ajac/runtime
// interface.
//
// The fault context is a compile-time axis, because its hooks sit inside
// the per-entry read loops (reads, ghost reads, bit flips): NullFaults,
// whose `enabled` is false and whose methods are empty (every call site is
// `if constexpr` guarded, so the unfaulted instantiation compiles to the
// plain solver, branch-free), and ActiveFaults, holding thread-local
// state. The kernel family (Blocked) is the other compile-time axis; the
// metrics and telemetry hooks are runtime-null (actor_step.hpp).
//
// ActiveFaults is a payload adapter over one fault::ActorFaults schedule,
// which keys every decision on (seed, thread, iteration[, row]), so a
// plan's decisions do not depend on anything but those coordinates.

#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "ajac/fault/actor_faults.hpp"
#include "ajac/partition/partition.hpp"
#include "ajac/runtime/actor_step.hpp"
#include "ajac/runtime/blocked_kernels.hpp"
#include "ajac/runtime/sell_kernels.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "ajac/runtime/shared_vector.hpp"
#include "ajac/sparse/blocked_csr.hpp"
#include "ajac/sparse/sell_csr.hpp"
#include "ajac/util/aligned.hpp"
#include "ajac/util/annotate.hpp"
#include "ajac/util/check.hpp"

namespace ajac::runtime::detail {

/// Fault context for the default (no plan) path. `enabled` is false and
/// every hook site in the solvers is `if constexpr`-guarded, so this
/// instantiation compiles to exactly the pre-fault solver: the zero-fault
/// path carries no fault branches at all.
struct NullFaults {
  static constexpr bool enabled = false;

  NullFaults(const CsrMatrix& /*a*/, const Vector& /*x0*/,
             const fault::FaultPlan* /*plan*/, index_t /*thread*/,
             index_t /*lo*/, index_t /*hi*/, SharedVector& /*x*/) {}

  void begin_iteration(index_t /*iter*/) {}
  [[nodiscard]] bool consume_state_reset() { return false; }
  [[nodiscard]] static constexpr bool has_bit_flips() { return false; }
  bool flip(index_t /*row*/, std::span<const index_t> /*cols*/,
            std::span<const double> /*vals*/, FlippedEntry& /*out*/) {
    return false;
  }
  [[nodiscard]] double read(const SharedVector& x, index_t j) const {
    return x.read(j);
  }
  [[nodiscard]] std::pair<double, index_t> read_versioned(
      const SharedVector& x, index_t j, std::uint64_t* retries) const {
    return x.read_versioned(j, retries);
  }
  [[nodiscard]] fault::FaultLog take_log() { return {}; }
};

/// Per-thread payload adapter over this thread's fault::ActorFaults. The
/// schedule makes every decision; the adapter applies it to x. It spins
/// for the stall, rewrites the own rows [lo, hi) from x0 on a state reset,
/// and inside a stale window serves the off-block columns from a snapshot
/// frozen at window entry. A bit flip corrupts one a_ij of the row.
class ActiveFaults {
 public:
  static constexpr bool enabled = true;

  ActiveFaults(const CsrMatrix& a, const Vector& x0,
               const fault::FaultPlan* plan, index_t thread, index_t lo,
               index_t hi, SharedVector& x)
      : schedule_(*plan, thread), x0_(&x0), x_(&x), lo_(lo), hi_(hi) {
    if (!schedule_.has_stale_reads()) return;
    // The off-block columns this thread's rows read — the "ghost layer" a
    // stale window freezes. Own-block reads (including the in-place
    // Gauss-Seidel sweep) always see live values.
    for (index_t i = lo; i < hi; ++i) {
      for (const index_t j : a.row_cols(i)) {
        if (j < lo || j >= hi) ghost_cols_.push_back(j);
      }
    }
    std::sort(ghost_cols_.begin(), ghost_cols_.end());
    ghost_cols_.erase(std::unique(ghost_cols_.begin(), ghost_cols_.end()),
                      ghost_cols_.end());
    ghost_values_.resize(ghost_cols_.size());
    ghost_versions_.assign(ghost_cols_.size(), 0);
  }

  /// Apply the schedule's decisions for the top of local iteration `iter`.
  void begin_iteration(index_t iter) {
    iter_ = iter;
    const fault::IterationFaults f = schedule_.begin_iteration(iter);
    spin_wait_us(f.stall_us);
    if (f.reset_state) {
      // This adapter belongs to the thread owning rows [lo_, hi_), so the
      // sole-writer role on x holds here by the partition contract.
      x_->writer_role().assert_held();
      for (index_t i = lo_; i < hi_; ++i) x_->write(i, (*x0_)[i]);
      // The write went behind any thread-private mirror of the own rows;
      // the blocked kernel path polls consume_state_reset() and reloads.
      state_reset_ = true;
    }
    if (f.stale_entered) freeze_ghosts();
    stale_on_ = f.stale_active;
  }

  /// True exactly once after a crash recovery rewrote this thread's rows of
  /// the shared x from the initial guess (lost memory). Consuming clears it.
  [[nodiscard]] bool consume_state_reset() {
    return std::exchange(state_reset_, false);
  }

  /// True when the plan holds a bit-flip spec for this thread. Without
  /// one, the kernels keep the unfaulted interior sweep and flip() returns
  /// before calling into the schedule.
  [[nodiscard]] bool has_bit_flips() const {
    return schedule_.has_bit_flips();
  }

  /// Transient bit flip for this (iteration, row): returns true and fills
  /// `out` when one off-diagonal entry should be read corrupted.
  bool flip(index_t row, std::span<const index_t> cols,
            std::span<const double> vals, FlippedEntry& out) {
    if (!has_bit_flips()) return false;
    const std::optional<fault::RowFlip> f = schedule_.flip(iter_, row, cols);
    if (!f) return false;
    out.entry = f->entry;
    out.value = fault::flip_bit(vals[f->entry], f->bit);
    return true;
  }

  /// Reads go through the adapter: inside a stale window, off-block
  /// columns come from the frozen snapshot instead of the live vector.
  [[nodiscard]] double read(const SharedVector& x, index_t j) const {
    if (frozen(j)) return ghost_values_[ghost_slot(j)];
    return x.read(j);
  }

  [[nodiscard]] std::pair<double, index_t> read_versioned(
      const SharedVector& x, index_t j, std::uint64_t* retries) const {
    if (frozen(j)) {
      const std::size_t g = ghost_slot(j);
      return {ghost_values_[g], ghost_versions_[g]};
    }
    return x.read_versioned(j, retries);
  }

  /// The metrics layer diffs its log per iteration (see MetricsRecorder).
  [[nodiscard]] const fault::ActorFaults& schedule() const { return schedule_; }

  [[nodiscard]] fault::FaultLog take_log() { return schedule_.take_log(); }

 private:
  [[nodiscard]] bool frozen(index_t j) const {
    return stale_on_ && (j < lo_ || j >= hi_);
  }

  [[nodiscard]] std::size_t ghost_slot(index_t j) const {
    const auto it =
        std::lower_bound(ghost_cols_.begin(), ghost_cols_.end(), j);
    AJAC_DBG_CHECK(it != ghost_cols_.end() && *it == j);
    return static_cast<std::size_t>(it - ghost_cols_.begin());
  }

  void freeze_ghosts() {
    for (std::size_t g = 0; g < ghost_cols_.size(); ++g) {
      if (x_->traced()) {
        const auto [value, version] = x_->read_versioned(ghost_cols_[g]);
        ghost_values_[g] = value;
        ghost_versions_[g] = version;
      } else {
        ghost_values_[g] = x_->read(ghost_cols_[g]);
      }
    }
  }

  fault::ActorFaults schedule_;
  const Vector* x0_;
  SharedVector* x_;
  index_t lo_;
  index_t hi_;
  index_t iter_ = 0;
  bool stale_on_ = false;
  bool state_reset_ = false;

  std::vector<index_t> ghost_cols_;  ///< sorted off-block columns
  std::vector<double> ghost_values_;  ///< frozen value per ghost column
  std::vector<index_t> ghost_versions_;  ///< its version (traced runs)
};

/// The process's minor page faults so far, the clock of
/// obs::Counter::kMinorFaults. getrusage counts every thread of the
/// process, so a delta over a solve is process-wide.
[[nodiscard]] inline std::int64_t process_minor_faults() noexcept {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::int64_t>(usage.ru_minflt);
}

/// Record on actor 0 the minor faults since `at_entry`, a
/// process_minor_faults() reading taken when the solve was entered.
inline void record_minor_faults(obs::MetricsRegistry* reg,
                                std::int64_t at_entry) {
  if (reg == nullptr) return;
  obs::ActorSlot& slot0 = reg->actor(0);
  slot0.owner.assert_held();
  slot0.add(obs::Counter::kMinorFaults,
            static_cast<std::uint64_t>(process_minor_faults() - at_entry));
}

/// Reference-kernel residual of row i, b_i - sum_j a_ij x_j in CSR entry
/// order, with x read through the fault context and a flipped entry read
/// corrupted. Every reference path (Jacobi, local Gauss-Seidel) relaxes
/// through it. Traced, the reads are versioned: each off-diagonal read's
/// (column, version) goes to `event` and its staleness to `metrics`.
template <bool Traced, class Faults>
double reference_residual(const CsrMatrix& a, const Vector& b,
                          const SharedVector& x, Faults& faults, index_t i,
                          MetricsRecorder& metrics, index_t iter,
                          model::RelaxationEvent* event) {
  double acc = b[i];
  const auto [cols, vals] = a.row(i);
  FlippedEntry flipped;
  bool has_flip = false;
  if constexpr (Faults::enabled) has_flip = faults.flip(i, cols, vals, flipped);
  if constexpr (Traced) {
    event->row = i;
    event->reads.reserve(cols.size());
  }
  for (std::size_t p = 0; p < cols.size(); ++p) {
    const index_t j = cols[p];
    double aij = vals[p];
    if constexpr (Faults::enabled) {
      if (has_flip && flipped.entry == p) aij = flipped.value;
    }
    if constexpr (Traced) {
      const auto [value, version] =
          faults.read_versioned(x, j, metrics.retry_sink());
      acc -= aij * value;
      if (j == i) continue;
      metrics.staleness(iter, version);
      event->reads.push_back({j, version});
    } else {
      acc -= aij * faults.read(x, j);
    }
  }
  return acc;
}

/// Run fn(t) on an OpenMP team of `threads`. OpenMP fork/join
/// synchronization happens inside libgomp (futexes TSan cannot see); hand
/// TSan the happens-before edges explicitly. Everything crossing threads
/// *inside* the region is std::atomic and needs nothing.
template <class Fn>
void on_team(index_t threads, Fn&& fn) {
  AJAC_TSAN_RELEASE(&fn);
#pragma omp parallel num_threads(static_cast<int>(threads))
  {
    AJAC_TSAN_ACQUIRE(&fn);
    fn(static_cast<index_t>(omp_get_thread_num()));
    AJAC_TSAN_RELEASE(&fn);
  }
  AJAC_TSAN_ACQUIRE(&fn);
}

template <class Faults, bool Blocked>
class SharedSolve;

/// solve_shared's transport for the actor step (DESIGN.md §2f): thread
/// t's rows [lo, hi) of the shared x. The partition makes the thread the
/// sole writer of those rows and of its mirror: each method claims the
/// roles its protocol writes and kernel calls require. Claims, not locks
/// — ownership is established by the partition, so there is nothing to
/// acquire.
template <class Faults, bool Blocked>
class SharedTransport {
 public:
  using Point = SharedHistoryPoint;
  using Options = SharedOptions;

  SharedTransport(SharedSolve<Faults, Blocked>& s, index_t t)
      : a_(s.in.a),
        b_(s.in.b),
        x_(s.x),
        inv_diag_(s.inv_diag),
        sell_(s.in.sell),
        gs_(s.in.opts.local_gauss_seidel),
        traced_(s.in.opts.record_trace),
        lo_(s.in.part.part_begin(t)),
        hi_(s.in.part.part_end(t)),
        faults_(s.in.a, s.in.x0, s.in.plan, t, lo_, hi_, s.x) {
    // Residuals of the own rows, by local row, seeded with the prologue's
    // r0 rows: the reference kernels' relax->commit carrier, and the
    // traced and SELL kernels' record for the ascending partial-norm pass
    // (they relax rows out of order). The blocked Jacobi kernel stages its
    // corrections in the mirror's `next` slice and sums as it goes, so it
    // needs none.
    if (!Blocked || traced_ || sell_ != nullptr) {
      local_r_.assign(s.resid.begin() + lo_, s.resid.begin() + hi_);
    }
    own_.owner.assert_held();
    // The private mirror and the SELL ghost buffer are allocated and filled
    // here, on the owning thread, which first-touches their pages.
    if constexpr (Blocked) {
      blk_ = &s.in.blocked->block(t);
      refresh_own_block(*blk_, x_, own_);
      if (sell_ != nullptr) {
        sblk_ = &sell_->block(t);
        ghosts_.assign(blk_->ghost_cols.size(), 0.0);
      }
    }
  }

  void begin(index_t iter, MetricsRecorder& /*metrics*/) {
    own_.owner.assert_held();
    if constexpr (Faults::enabled) {
      faults_.begin_iteration(iter);
      // A crash recovery with state reset rewrote the shared x on the own
      // rows behind the mirror; reload it before any kernel reads through
      // it.
      if constexpr (Blocked) {
        if (faults_.consume_state_reset()) reload_after_reset(*blk_, x_, own_);
      }
    }
  }

  /// The own rows' residuals from the shared (racy) x, and their partial
  /// norm.
  double relax(index_t iter, MetricsRecorder& metrics) {
    x_.writer_role().assert_held();
    own_.owner.assert_held();
    double partial = 0.0;
    if (gs_) {
      // In-place forward sweep: each row's update is visible to the
      // following rows (and to other threads) immediately.
      if constexpr (Blocked) {
        partial = relax_block_gs(*blk_, a_, b_, own_, x_, faults_);
      } else {
        for (index_t i = lo_; i < hi_; ++i) {
          const double acc = reference_residual<false>(
              a_, b_, x_, faults_, i, metrics, iter, nullptr);
          partial += std::abs(acc);
          x_.write(i, x_.read(i) + inv_diag_[i] * acc);
        }
      }
    } else if (traced_) {
      if constexpr (Blocked) {
        relax_traced(*blk_, a_, b_, own_, x_, faults_, metrics, iter, local_r_,
                     events_);
      } else {
        for (index_t i = lo_; i < hi_; ++i) {
          model::RelaxationEvent& event = events_.emplace_back();
          local_r_[i - lo_] = reference_residual<true>(
              a_, b_, x_, faults_, i, metrics, iter, &event);
        }
      }
      partial = vec::norm1(local_r_);
    } else if constexpr (Blocked) {
      if (sell_ != nullptr) {
        // kSellCS: refresh the dense ghost buffer once, then relax the
        // SELL-packed interior and the buffered boundary. Traces, GS and
        // every fault but a straggler's stall never reach this branch
        // (rejected in solve_shared).
        refresh_ghosts(*blk_, x_, ghosts_);
        metrics.ghost_refresh();
        relax_interior_sell(*sblk_, *blk_, b_, own_, local_r_);
        relax_boundary_buffered(*blk_, b_, own_, ghosts_, local_r_);
        partial = vec::norm1(local_r_);
      } else {
        partial = relax_block(*blk_, a_, b_, own_, x_, faults_);
      }
    } else {
      // The reference Jacobi step sums its partial in a separate
      // ascending pass over its residuals.
      for (index_t i = lo_; i < hi_; ++i) {
        local_r_[i - lo_] = reference_residual<false>(a_, b_, x_, faults_, i,
                                                      metrics, iter, nullptr);
      }
      partial = vec::norm1(local_r_);
    }
    if constexpr (Blocked) metrics.read_mix(blk_->local_nnz, blk_->ghost_nnz);
    return partial;
  }

  void send(index_t /*iter*/) {}

  /// Correct the own rows: already done in place by the GS sweep; the
  /// blocked kernels staged the values in relax() and only publish them.
  void receive(index_t /*iter*/, MetricsRecorder& /*metrics*/) {
    x_.writer_role().assert_held();
    own_.owner.assert_held();
    if (gs_) return;
    if constexpr (Blocked) {
      commit_block(*blk_, own_, x_);
    } else {
      for (index_t i = lo_; i < hi_; ++i) {
        x_.write(i, x_.read(i) + inv_diag_[i] * local_r_[i - lo_]);
      }
    }
  }

  /// This thread's share of a verification round (terminator.hpp): the
  /// fresh residual 1-norm of its own rows, from the mirror and live
  /// ghosts on the blocked path (the shared x lags on private rows), from
  /// the shared x on the reference path.
  double fresh() {
    own_.owner.assert_held();
    if constexpr (Blocked) {
      return block_residual_1(*blk_, b_, own_, x_);
    } else {
      double norm = 0.0;
      for (index_t i = lo_; i < hi_; ++i) {
        norm += std::abs(
            row_residual(a_, i, b_[i], [&](index_t j) { return x_.read(j); }));
      }
      return norm;
    }
  }

  [[nodiscard]] index_t rows() const { return hi_ - lo_; }

  [[nodiscard]] const fault::ActorFaults* schedule() const {
    if constexpr (Faults::enabled) return &faults_.schedule();
    return nullptr;
  }

  void retire(ActorOutcome<Point>& out, MetricsRecorder& /*metrics*/) {
    x_.writer_role().assert_held();
    own_.owner.assert_held();
    if constexpr (Blocked) publish_private_rows(*blk_, own_, x_);
    out.events = std::move(events_);
    out.faults = faults_.take_log();
  }

 private:
  const CsrMatrix& a_;
  const Vector& b_;
  SharedVector& x_;
  std::span<const double> inv_diag_;  ///< reference path only
  const SellCsr* sell_;               ///< the kSellCS data plane, or null
  bool gs_;
  bool traced_;
  index_t lo_;
  index_t hi_;
  Faults faults_;
  [[maybe_unused]] const BlockedCsr::Block* blk_ = nullptr;
  OwnBlockState own_;  ///< the blocked path's private mirror
  [[maybe_unused]] const SellCsr::Block* sblk_ = nullptr;
  std::vector<double> ghosts_;  ///< kSellCS dense ghost buffer
  std::vector<double> local_r_;
  std::vector<model::RelaxationEvent> events_;
};

/// solve_shared's validated inputs, with the partition and the layout
/// built. `sell` is the kSellCS data plane (null otherwise): a runtime
/// pointer rather than a third template axis — the per-iteration `sell !=
/// nullptr` branch is noise next to an O(nnz) sweep.
struct SharedInputs {
  const CsrMatrix& a;
  const Vector& b;
  const Vector& x0;
  const SharedOptions& opts;
  const partition::Partition& part;
  const fault::FaultPlan* plan;  ///< null without faults
  const BlockedCsr* blocked;     ///< null on the reference path
  const SellCsr* sell;
};

/// One solve_shared run: the prologue, one actor step per thread, and the
/// epilogue and post-join tail.
template <class Faults, bool Blocked>
class SharedSolve {
 public:
  using Step = ActorStep<SharedTransport<Faults, Blocked>>;

  // No serial O(n) pass here: the vectors are allocated unfilled and
  // prologue() writes every row from its owning thread. The blocked
  // kernels keep 1 / a_ii per block, so only the reference path builds
  // inv_diag.
  explicit SharedSolve(const SharedInputs& inputs)
      : in(inputs),
        x(in.a.num_rows(), in.opts.record_trace),
        resid(static_cast<std::size_t>(in.a.num_rows())),
        inv_diag(Blocked ? 0 : static_cast<std::size_t>(in.a.num_rows())),
        team(in.opts.num_threads, prologue(), in.opts, in.opts.stream) {
    if (in.opts.stream != nullptr) {
      // Telemetry denominator for the monitor's global residual estimate;
      // single-threaded setup, before any beacon of this run.
      in.opts.stream->set_residual_scale(team.term.r0_norm());
    }
  }

  [[nodiscard]] Step actor(index_t t) { return Step(team, t, *this, t); }

  /// After every step retired: the actor-parallel epilogue, then the
  /// post-join tail. Each thread copies its rows of the shared x into the
  /// result and writes their residual b - A x to `resid`
  /// (CsrMatrix::residual's expression and bits), so the serial
  /// verification only sums `resid`. On the layout path its block computes
  /// the residual, own columns from its rows of the result; the reference
  /// path reads the parent CSR. Ghost columns come from the shared x: the
  /// blocked actors published their private rows before the join, so x
  /// holds the whole final iterate.
  [[nodiscard]] SharedResult finish() {
    SharedResult result;
    result.seconds = team.timer.seconds();
    Vector& out = result.x;
    out.resize(static_cast<std::size_t>(in.a.num_rows()));
    on_team(in.opts.num_threads, [&](index_t t) {
      const index_t lo = in.part.part_begin(t);
      const index_t hi = in.part.part_end(t);
      const auto shared = [&](index_t j) { return x.read(j); };
      for (index_t i = lo; i < hi; ++i) {
        out[static_cast<std::size_t>(i)] = x.read(i);
      }
      if constexpr (Blocked) {
        const auto base = static_cast<std::size_t>(lo);
        sweep_block_residual(
            in.blocked->block(t), in.b, out.data() + lo, shared,
            [&](std::size_t li, double acc) { resid[base + li] = acc; });
      } else {
        for (index_t i = lo; i < hi; ++i) {
          resid[static_cast<std::size_t>(i)] =
              row_residual(in.a, i, in.b[i], shared);
        }
      }
    });
    team.finish(in.a, in.b, inv_diag, resid, result,
                result.iterations_per_thread);
    return result;
  }

  SharedInputs in;
  SharedVector x;
  UninitVector<double> resid;
  UninitVector<double> inv_diag;
  ActorTeam<SharedTransport<Faults, Blocked>> team;

 private:
  /// Actor-parallel prologue: each thread first-touches and fills its own
  /// rows of x (= x0) and `resid` (= r0 = b - A x0 row by row, the
  /// expression and bits of CsrMatrix::residual). On the layout path
  /// (Blocked) its block computes them, reading only b and x0 on uniform
  /// runs, and reports the zero diagonal its build found; the reference
  /// path reads the parent CSR and fills 1 / a_ii into `inv_diag`. Its own
  /// region, with the same thread-to-block map as the solve's, so a zero
  /// diagonal can be reported by an exception after the join. Returns r0's
  /// norm, which stays one serial row-order sum (vec::norm1) so the
  /// reported relative residuals keep their bits.
  double prologue() {
    std::vector<index_t> zero_row(static_cast<std::size_t>(in.opts.num_threads),
                                  -1);
    on_team(in.opts.num_threads, [&](index_t t) {
      const index_t lo = in.part.part_begin(t);
      const index_t hi = in.part.part_end(t);
      const Vector& x0 = in.x0;
      // The partition makes this thread the sole writer of its rows.
      x.writer_role().assert_held();
      index_t& my_zero = zero_row[static_cast<std::size_t>(t)];
      for (index_t i = lo; i < hi; ++i) x.init(i, x0[i]);
      if constexpr (Blocked) {
        const BlockedCsr::Block& blk = in.blocked->block(t);
        const auto base = static_cast<std::size_t>(lo);
        my_zero = blk.zero_diag_row;
        sweep_block_residual(
            blk, in.b, x0.data() + lo, [&](index_t j) { return x0[j]; },
            [&](std::size_t li, double acc) { resid[base + li] = acc; });
      } else {
        for (index_t i = lo; i < hi; ++i) {
          resid[static_cast<std::size_t>(i)] =
              row_residual(in.a, i, in.b[i], [&](index_t j) { return x0[j]; });
          const double diag = in.a.at(i, i);
          if (diag == 0.0 && my_zero < 0) my_zero = i;
          inv_diag[static_cast<std::size_t>(i)] = 1.0 / diag;
        }
      }
    });
    for (const index_t row : zero_row) {
      AJAC_CHECK_MSG(row < 0, "zero diagonal at row " << row);
    }
    return vec::norm1(resid);
  }
};

}  // namespace ajac::runtime::detail
