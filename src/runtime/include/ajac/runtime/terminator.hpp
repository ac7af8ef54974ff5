#pragma once
// The termination protocol of solve_shared and solve_mesh, over one
// right-hand side.
//
// The paper's flag array (Sec. V) rests on racy residual norms, so here
// all flags up only triggers verification. The racy norm is aggregated in
// O(P): each actor publishes the 1-norm of its own rows' residual (its
// partial, rows ascending) and a reader sums the P partials in actor
// order (racy_rel). Verification is split across the actors too: a poller
// that sees every flag up opens a verification round, and each actor adds
// its share, the fresh 1-norm of its own rows' residual, once, at its next
// poll or park. The last contributor sums the shares in actor order and
// latches the stop iff that norm is <= tol (relative to r0); a failed
// round closes and a later poll can open the next. The stop also latches,
// with no round, once every actor's iteration counter is at the cap. The
// latch never reverts, and the exchange that sets it elects the one poll
// that reports the stop. Actors at the cap park (poll without relaxing),
// so the executed (actor, iteration) set never depends on scheduling.
// After the join, verify_and_polish decides `converged` and cleans up a
// stale commit with bounded serial sweeps. DESIGN.md §2e states the
// contract; tests/runtime/terminator_test.cpp checks it.

#include <sched.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "ajac/util/aligned.hpp"

namespace ajac::runtime {

class Terminator {
 public:
  /// `r0_norm` = ||b - A x0||_1 (0 is taken as 1). tolerance <= 0 disables
  /// the residual test: the solve then stops only at the cap.
  Terminator(index_t actors, double r0_norm, double tolerance,
             index_t max_iterations)
      : actors_(actors),
        tolerance_(tolerance),
        cap_(max_iterations),
        r0_norm_(r0_norm > 0.0 ? r0_norm : 1.0),
        flags_(static_cast<std::size_t>(actors)),
        partials_(flags_.size()),
        shares_(flags_.size()),
        counters_(flags_.size()) {
    // Until an actor publishes, its partial counts as the whole initial
    // residual: an overestimate while the solve converges, so an actor
    // that has not reported yet holds flags down instead of raising them
    // early.
    for (auto& p : partials_) {
      // racy-ok(init): single-threaded construction, before any actor runs.
      p.v.store(r0_norm_, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] double r0_norm() const { return r0_norm_; }
  [[nodiscard]] bool at_cap(index_t iter) const { return iter >= cap_; }
  [[nodiscard]] bool stopped() const {
    // racy-ok(stop): 0 -> 1 latch; a stale read costs one extra pass.
    return stop_.load(std::memory_order_relaxed) != 0;
  }
  /// The iteration passed to the poll that latched the stop (after join).
  [[nodiscard]] index_t stop_iteration() const { return stop_iteration_; }
  /// True iff some actor's published iteration count (flag) is below
  /// `iter`: the caller is ahead of the slowest actor.
  [[nodiscard]] bool ahead_of_slowest(index_t iter) const {
    for (const auto& n : counters_) {
      // racy-ok(monotonic): a scheduling hint; a stale count only moves
      // one yield.
      if (n.v.load(std::memory_order_relaxed) < iter) return true;
    }
    return false;
  }

  /// Publish `partial`, the 1-norm of the residual on `actor`'s own rows
  /// summed in ascending row order (each row counted by one actor).
  /// Synchronous drivers publish before the barrier that precedes the
  /// readers, so every reader sums the partials of the same iteration.
  void publish_partial(index_t actor, double partial) {
    // racy-ok(flag): a partial only feeds the racy norm behind a flag.
    partials_[at(actor)].v.store(partial, std::memory_order_relaxed);
  }

  /// The racy relative residual: the latest published partials summed in
  /// actor order, over r0. A stale or placeholder partial can only delay
  /// or spuriously trigger verification, never a stop.
  [[nodiscard]] double racy_rel() const {
    double norm = 0.0;
    for (const auto& p : partials_) {
      // racy-ok(flag): hint aggregation; poll() verifies before any stop.
      norm += p.v.load(std::memory_order_relaxed);
    }
    return norm / r0_norm_;
  }

  /// `actor` has finished `iter` local iterations and measured the racy
  /// relative residual `rel`: publish the count and set the flag, up iff
  /// rel <= tol or at the cap. Returns the flag.
  bool flag(index_t actor, index_t iter, double rel) {
    // racy-ok(monotonic): the gate only needs an eventually-fresh bound.
    counters_[at(actor)].v.store(iter, std::memory_order_relaxed);
    const bool done = (tolerance_ > 0.0 && rel <= tolerance_) || at_cap(iter);
    // racy-ok(flag): a hint from a racy norm; poll() verifies.
    flags_[at(actor)].v.store(done, std::memory_order_relaxed);
    return done;
  }

  /// One termination poll by `actor` after its local iteration `iter`
  /// (or while parked at the cap). Until the stop latches: if every flag
  /// is up and no round is open, latch at once when every actor is at the
  /// cap, else open a verification round; then, if a round is open that
  /// this actor has not served, add its share `own_fresh()`: the fresh
  /// ||b - A x||_1 over the actor's own rows, rows ascending. The actor
  /// whose share completes the round sums the P shares in actor order and
  /// latches iff the sum over r0 is <= tol. Returns true iff this call
  /// latched the stop, so exactly one caller records it.
  template <class OwnFresh>
  bool poll(index_t actor, index_t iter, OwnFresh&& own_fresh) {
    return !stopped() && verify(actor, iter, own_fresh);
  }

  /// One pass of an actor parked at the cap: poll, then yield the core.
  /// A parked actor serves every round, so it never holds one open.
  template <class OwnFresh>
  bool park(index_t actor, index_t iter, OwnFresh&& own_fresh) {
    const bool decided = poll(actor, iter, own_fresh);
    sched_yield();
    return decided;
  }

  /// Verification rounds opened so far (0 before the first).
  [[nodiscard]] std::uint32_t rounds() const {
    return round_id(round_.load(std::memory_order_acquire));
  }
  /// True while a round is waiting for shares.
  [[nodiscard]] bool round_open() const {
    return is_open(round_.load(std::memory_order_acquire));
  }

 private:
  template <class T>
  struct alignas(kCacheLineBytes) Padded {
    std::atomic<T> v{};
  };

  static std::size_t at(index_t i) { return static_cast<std::size_t>(i); }

  [[nodiscard]] bool all_flags_up() const {
    for (const auto& f : flags_) {
      // racy-ok(flag): hint scan; a stale flag only defers verification.
      if (f.v.load(std::memory_order_relaxed) == 0) return false;
    }
    return true;
  }

  // A round word: bits 0-31 count the shares added, bit 32 is set while
  // the round is open, bits 33-63 number the round (1 for the first).
  static constexpr std::uint64_t kOpen = std::uint64_t{1} << 32;
  static constexpr int kIdShift = 33;
  static std::uint32_t round_id(std::uint64_t word) {
    return static_cast<std::uint32_t>(word >> kIdShift);
  }
  static bool is_open(std::uint64_t word) { return (word & kOpen) != 0; }
  static index_t arrivals(std::uint64_t word) {
    return static_cast<index_t>(word & (kOpen - 1));
  }
  static std::uint64_t closed_word(std::uint32_t id) {
    return std::uint64_t{id} << kIdShift;
  }

  /// One actor's share of the verification rounds. Only its actor writes
  /// it; the round word orders every access: the actor writes `value`
  /// before its acq_rel arrival on the word, the completing actor reads it
  /// after its own, and the next round's writes follow that actor's
  /// release store of the closed word. So no atomics are needed.
  struct alignas(kCacheLineBytes) Share {
    double value = 0.0;
    std::uint32_t round = 0;  ///< the last round served; 0 = none
  };

  [[nodiscard]] bool all_at_cap() const {
    for (const auto& n : counters_) {
      // racy-ok(monotonic): counters only grow; a stale read can only
      // delay the stop, never cause a premature one.
      if (n.v.load(std::memory_order_relaxed) < cap_) return false;
    }
    return true;
  }

  /// Latch the stop at `iter`. Returns true iff this call set it.
  bool latch(index_t iter) {
    // racy-ok(stop): 0 -> 1; the exchange elects the one reporting caller
    // and the writer of stop_iteration_, which is read after the join.
    if (stop_.exchange(1, std::memory_order_relaxed) != 0) return false;
    stop_iteration_ = iter;
    return true;
  }

  template <class OwnFresh>
  bool verify(index_t actor, index_t iter, OwnFresh& own_fresh) {
    std::uint64_t seen = round_.load(std::memory_order_acquire);
    if (!is_open(seen)) {
      if (!all_flags_up()) return false;
      if (all_at_cap()) return latch(iter);
      if (tolerance_ <= 0.0) return false;
      const std::uint64_t opened = closed_word(round_id(seen) + 1) | kOpen;
      if (round_.compare_exchange_strong(seen, opened,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        seen = opened;
      } else if (!is_open(seen)) {
        return false;  // another poller's round opened and closed: next poll
      }
    }
    // A round can only close once every actor has served it, so a round
    // this actor has not served is still the open one when it arrives.
    Share& mine = shares_[at(actor)];
    if (mine.round == round_id(seen)) return false;
    mine.value = own_fresh();
    mine.round = round_id(seen);
    const std::uint64_t arrived =
        round_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (arrivals(arrived) < actors_) return false;
    double norm = 0.0;
    for (const Share& s : shares_) norm += s.value;
    const bool latched = norm / r0_norm_ <= tolerance_ && latch(iter);
    round_.store(closed_word(round_id(arrived)), std::memory_order_release);
    return latched;
  }

  index_t actors_;
  double tolerance_;
  index_t cap_;
  double r0_norm_;
  std::vector<Padded<bool>> flags_;        ///< per actor
  std::vector<Padded<double>> partials_;   ///< per actor
  std::vector<Share> shares_;              ///< per actor
  std::vector<Padded<index_t>> counters_;  ///< local iterations per actor
  // Own cache lines: every poll reads stop_, and round_ takes a write per
  // share.
  alignas(kCacheLineBytes) std::atomic<std::uint64_t> round_{0};
  alignas(kCacheLineBytes) std::atomic<int> stop_{0};
  index_t stop_iteration_ = 0;
};

/// b_i - (A x)_i with entries in CSR order, reading x through `x_at(j)`:
/// CsrMatrix::residual's expression, so the same values give its bits.
template <class X>
double row_residual(const CsrMatrix& a, index_t i, double b_i, X&& x_at) {
  double acc = b_i;
  const auto [cols, vals] = a.row(i);
  for (std::size_t p = 0; p < cols.size(); ++p) {
    acc -= vals[p] * x_at(cols[p]);
  }
  return acc;
}

/// Serial polish sweep budget of a solve run by `actors` threads or agents.
constexpr index_t polish_budget(index_t actors) { return 20 * actors + 200; }

struct PolishOutcome {
  double rel_residual_1 = 0.0;  ///< ||b - A x||_1 / r0_norm after polish
  index_t sweeps = 0;           ///< serial Jacobi sweeps applied to x
  bool converged = false;       ///< tol > 0 and rel_residual_1 <= tol
};

/// Post-join epilogue: the serial relative residual of x, then, if
/// `polish` and it misses `tol`, serial Jacobi sweeps on x until it holds
/// or `cap` sweeps ran. An actor descheduled across the verified stop may
/// have committed a stale update; x is near the fixed point, so a few
/// sweeps repair it.
///
/// `r` must hold b - A x on entry (a caller may compute it actor-parallel)
/// and holds the residual of the returned x on exit. An empty `inv_diag`
/// is built from a's diagonal before the first sweep, so a solve whose
/// kernels keep 1 / a_ii per block never builds it when no sweep runs.
inline PolishOutcome verify_and_polish(const CsrMatrix& a, const Vector& b,
                                       std::span<const double> inv_diag,
                                       double r0_norm, double tol, bool polish,
                                       index_t cap, Vector& x,
                                       std::span<double> r) {
  PolishOutcome out{vec::norm1(r) / r0_norm};
  Vector built;
  while (polish && tol > 0.0 && out.sweeps < cap && out.rel_residual_1 > tol) {
    if (inv_diag.empty()) {
      built = a.diagonal();
      for (double& d : built) d = 1.0 / d;
      inv_diag = built;
    }
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += inv_diag[i] * r[i];
    a.residual(x, b, r);
    out.rel_residual_1 = vec::norm1(r) / r0_norm;
    ++out.sweeps;
  }
  out.converged = tol > 0.0 && out.rel_residual_1 <= tol;
  return out;
}

/// verify_and_polish computing the entry residual serially.
inline PolishOutcome verify_and_polish(const CsrMatrix& a, const Vector& b,
                                       const Vector& inv_diag, double r0_norm,
                                       double tol, bool polish, index_t cap,
                                       Vector& x) {
  Vector r(x.size());
  a.residual(x, b, r);
  return verify_and_polish(a, b, inv_diag, r0_norm, tol, polish, cap, x, r);
}

}  // namespace ajac::runtime
