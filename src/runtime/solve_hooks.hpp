#pragma once
// Internal fault / metrics / telemetry hook contexts of the shared-memory
// solver (shared_jacobi.cpp). Not installed: this header lives next to the
// translation unit that includes it and is not part of the public
// ajac/runtime interface.
//
// Two kinds of hook. The fault context is a compile-time axis, because its
// hooks sit inside the per-entry read loops (reads, ghost reads, bit
// flips): NullFaults, whose `enabled` is false and whose methods are empty
// (every call site is `if constexpr` guarded, so the unfaulted
// instantiation compiles to the plain solver, branch-free), and
// ActiveFaults, holding thread-local state. The metrics recorder and the
// telemetry publisher fire once per iteration, so each is one class built
// from a possibly-null sink whose hooks return at once when nothing is
// attached: they cost a predictable branch, not an instantiation.
//
// ActiveFaults is a payload adapter over one fault::ActorFaults schedule,
// which keys every decision on (seed, thread, iteration[, row]), so a
// plan's decisions do not depend on anything but those coordinates.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "ajac/fault/actor_faults.hpp"
#include "ajac/fault/fault_plan.hpp"
#include "ajac/obs/metrics.hpp"
#include "ajac/obs/stream.hpp"
#include "ajac/runtime/blocked_kernels.hpp"
#include "ajac/runtime/shared_vector.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/types.hpp"
#include "ajac/util/check.hpp"
#include "ajac/util/timer.hpp"

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

  /// The metrics layer diffs these per iteration (see MetricsRecorder).
  [[nodiscard]] const fault::FaultLog& log() const { return schedule_.log(); }
  [[nodiscard]] double stalled_us() const { return schedule_.stalled_us(); }

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

/// Per-thread metrics recorder over this thread's ActorSlot, built from a
/// possibly-null registry. Without one every hook returns at once: no
/// timer read, no slot write, and retry_sink() stays nullptr, so the
/// seqlock readers count nothing. The hooks fire once per iteration
/// (staleness fires per read, on traced runs only), so the branch each
/// one costs is noise next to a sweep, and no hook touches the solve's
/// arithmetic: a solve with and without a registry is bitwise the same.
///
/// All state is thread-local; the only shared object touched is the slot,
/// which has a single writer by the registry's threading contract. Each
/// recording method claims the slot's sole-writer role (assert_held)
/// before touching it — the claim is what lets -Wthread-safety verify
/// every slot mutation flows through the owning thread's recorder.
class MetricsRecorder {
 public:
  MetricsRecorder(obs::MetricsRegistry* reg, index_t thread,
                  const WallTimer& timer)
      : slot_(reg != nullptr ? &reg->actor(thread) : nullptr),
        timer_(&timer) {}

  /// True when a registry is attached.
  [[nodiscard]] bool on() const { return slot_ != nullptr; }

  void iteration_begin() {
    if (!on()) return;
    t0_us_ = timer_->seconds() * 1e6;
  }

  /// Timestamp the injections the fault layer just performed. Its log is
  /// append-only within the thread, so entries past the last seen size are
  /// this iteration's; they become timeline instants (arg0 = the log
  /// entry's detail field: row for bit flips, 0 otherwise). Injected
  /// stalls (stragglers, crash dead time) go to kSpinWaitNs by duration
  /// rather than timed: the wait is synthetic and exact.
  template <class Faults>
  void sync_faults(const Faults& faults) {
    if constexpr (Faults::enabled) {
      if (!on()) return;
      slot_->owner.assert_held();
      const double stalled = faults.stalled_us();
      if (stalled > seen_stall_us_) {
        slot_->add(obs::Counter::kSpinWaitNs,
                   static_cast<std::uint64_t>((stalled - seen_stall_us_) *
                                              1e3));
        seen_stall_us_ = stalled;
      }
      const fault::FaultLog& log = faults.log();
      if (log.size() == seen_faults_) return;
      const double now_us = timer_->seconds() * 1e6;
      for (; seen_faults_ < log.size(); ++seen_faults_) {
        const fault::FaultEvent& e = log[seen_faults_];
        slot_->add(obs::Counter::kFaultEvents);
        slot_->instant(fault_trace_kind(e.kind), now_us, e.detail, e.detail2);
      }
    }
  }

  /// One cross-block versioned read: how many versions behind a synchronous
  /// schedule it was. Under lockstep Jacobi a reader in local iteration
  /// `iter` (0-based) sees version `iter` of every neighbor; the shortfall
  /// is the staleness l of the paper's Φ(l) propagation analysis.
  void staleness(index_t iter, index_t version) {
    if (!on()) return;
    slot_->owner.assert_held();
    const std::uint64_t lag =
        version < iter ? static_cast<std::uint64_t>(iter - version) : 0;
    slot_->record(obs::Hist::kReadStaleness, lag);
  }

  /// Blocked kernels only: how many matrix entries this iteration resolved
  /// from the thread-private mirror vs through the SharedVector. The counts
  /// are precomputed per block (local_nnz/ghost_nnz), so the hook costs two
  /// counter adds per iteration, nothing per entry. The reference path
  /// leaves both lanes at zero.
  void read_mix(index_t local_entries, index_t ghost_entries) {
    if (!on()) return;
    slot_->owner.assert_held();
    slot_->add(obs::Counter::kLocalReads,
               static_cast<std::uint64_t>(local_entries));
    slot_->add(obs::Counter::kGhostReads,
               static_cast<std::uint64_t>(ghost_entries));
  }

  /// Thread-local seqlock retry accumulator, flushed per iteration; null
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
    slot_->owner.assert_held();
    const double us = timer_->seconds() * 1e6 - tr0_us_;
    slot_->add(obs::Counter::kResidualCheckNs,
               static_cast<std::uint64_t>(us * 1e3));
    slot_->record(obs::Hist::kResidualCheckUs,
                  static_cast<std::uint64_t>(us));
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
  void ghost_refresh() {
    if (!on()) return;
    slot_->owner.assert_held();
    slot_->add(obs::Counter::kGhostRefreshes);
  }

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

/// Post-join epilogue on actor 0's slot, a no-op without a registry: the
/// polish sweeps and their span (from the end of the parallel phase at
/// `parallel_s`), then the span of the whole solve. The workers are gone,
/// so the calling thread owns slot 0.
inline void record_solve_end(obs::MetricsRegistry* reg, const WallTimer& timer,
                             double parallel_s, index_t polish_sweeps) {
  if (reg == nullptr) return;
  obs::ActorSlot& slot0 = reg->actor(0);
  slot0.owner.assert_held();
  const double end_us = timer.seconds() * 1e6;
  if (polish_sweeps > 0) {
    slot0.add(obs::Counter::kPolishSweeps,
              static_cast<std::uint64_t>(polish_sweeps));
    slot0.span(obs::TraceKind::kPolish, parallel_s * 1e6, end_us,
               polish_sweeps);
  }
  slot0.span(obs::TraceKind::kSolve, 0.0, end_us);
}

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

/// Per-thread beacon publisher over this thread's EventRing, built from a
/// possibly-null hub; without one every hook returns at once. It claims
/// the ring via the hub's one-ring-per-actor contract; a publish is
/// wait-free and touches nothing shared but the ring, so the observed
/// solve's memory traffic gains only a strided handful of atomic stores.
class StreamPublisher {
 public:
  StreamPublisher(obs::TelemetryHub* hub, index_t thread,
                  const WallTimer& timer)
      : ring_(hub != nullptr ? &hub->ring(thread) : nullptr),
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

}  // namespace ajac::runtime::detail
