#pragma once
// The termination protocol of solve_shared and solve_mesh. Both run one
// column; the column axis (per-(actor, column) flags and latches, a global
// stop once every column latched) is exercised only by
// tests/runtime/terminator_test.cpp.
//
// The paper's flag array (Sec. V) rests on racy residual norms, so here
// all flags up only triggers verification. The racy norm is aggregated in
// O(P): each actor publishes the 1-norm of its own rows' residual (its
// partial, rows ascending) and a reader sums the P partials in actor
// order (racy_rel). Verification is split across the actors too: a poller
// that sees every flag of a column up opens a verification round, and
// each actor adds its share, the fresh 1-norm of its own rows' residual,
// once, at its next poll or park. The last contributor sums the shares in
// actor order and latches the column iff that norm is <= tol (relative to
// r0); a failed round closes and a later poll can open the next. A column
// also latches, with no round, once every actor's iteration counter is at
// the cap. Latches never revert, and the global stop follows once every
// column has latched. Actors at the cap park (poll without relaxing), so
// the executed (actor, iteration) set never depends on scheduling. After
// the join, verify_and_polish decides `converged` and cleans up a stale
// commit with bounded serial sweeps. DESIGN.md §2e states the contract;
// tests/runtime/terminator_test.cpp checks it.

#include <sched.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "ajac/util/aligned.hpp"

namespace ajac::runtime {

class Terminator {
 public:
  /// `r0_norms[c]` = ||b_c - A x0_c||_1 (0 is taken as 1). tolerance <= 0
  /// disables the residual test: the solve then stops only at the cap.
  Terminator(index_t actors, std::vector<double> r0_norms, double tolerance,
             index_t max_iterations)
      : actors_(actors),
        columns_(static_cast<index_t>(r0_norms.size())),
        tolerance_(tolerance),
        cap_(max_iterations),
        r0_norms_(std::move(r0_norms)),
        flags_(static_cast<std::size_t>(actors * columns_)),
        partials_(flags_.size()),
        shares_(flags_.size()),
        counters_(static_cast<std::size_t>(actors)),
        rounds_(r0_norms_.size()),
        latched_(r0_norms_.size()),
        stop_iteration_(r0_norms_.size(), 0) {
    for (double& v : r0_norms_) v = v > 0.0 ? v : 1.0;
    // Until an actor publishes, its partial counts as the column's whole
    // initial residual: an overestimate while the solve converges, so an
    // actor that has not reported yet holds flags down instead of raising
    // them early.
    for (std::size_t s = 0; s < partials_.size(); ++s) {
      // racy-ok(init): single-threaded construction, before any actor runs.
      partials_[s].v.store(r0_norms_[s % at(columns_)],
                           std::memory_order_relaxed);
    }
  }

  [[nodiscard]] double r0_norm(index_t c = 0) const {
    return r0_norms_[at(c)];
  }
  [[nodiscard]] bool at_cap(index_t iter) const { return iter >= cap_; }
  [[nodiscard]] bool stopped() const {
    // racy-ok(stop): 0 -> 1 latch; a stale read costs one extra pass.
    return stop_.load(std::memory_order_relaxed) != 0;
  }
  [[nodiscard]] bool column_stopped(index_t c) const {
    // racy-ok(monotonic): 0 -> 1 latch; seeing it late only defers work.
    return latched_[at(c)].load(std::memory_order_relaxed) != 0;
  }
  /// The iteration passed to the poll that latched column c (after join).
  [[nodiscard]] index_t stop_iteration(index_t c) const {
    return stop_iteration_[at(c)];
  }

  /// Publish `partial`, the 1-norm of column c's residual on `actor`'s own
  /// rows summed in ascending row order (each row counted by one actor).
  /// Synchronous drivers publish before the barrier that precedes the
  /// readers, so every reader sums the partials of the same iteration.
  void publish_partial(index_t actor, index_t c, double partial) {
    // racy-ok(flag): a partial only feeds the racy norm behind a flag.
    partials_[at(actor * columns_ + c)].v.store(partial,
                                                std::memory_order_relaxed);
  }

  /// The racy relative residual of column c: the latest published partials
  /// summed in actor order, over r0. A stale or placeholder partial can
  /// only delay or spuriously trigger verification, never a stop.
  [[nodiscard]] double racy_rel(index_t c = 0) const {
    double norm = 0.0;
    for (std::size_t s = at(c); s < partials_.size(); s += at(columns_)) {
      // racy-ok(flag): hint aggregation; poll() verifies before any stop.
      norm += partials_[s].v.load(std::memory_order_relaxed);
    }
    return norm / r0_norm(c);
  }

  /// `actor` has finished `iter` local iterations and measured the racy
  /// relative residual `rel` of column c: publish the count and set the
  /// flag, up iff rel <= tol or at the cap. Returns the flag.
  bool flag(index_t actor, index_t iter, index_t c, double rel) {
    // racy-ok(monotonic): the gate only needs an eventually-fresh bound.
    counters_[at(actor)].v.store(iter, std::memory_order_relaxed);
    const bool done = (tolerance_ > 0.0 && rel <= tolerance_) || at_cap(iter);
    // racy-ok(flag): a hint from a racy norm; poll() verifies.
    flags_[at(actor * columns_ + c)].v.store(done, std::memory_order_relaxed);
    return done;
  }

  /// One termination poll by `actor` after its local iteration `iter`
  /// (or while parked at the cap). Per unlatched column c: if every flag
  /// is up and no round is open, latch at once when every actor is at the
  /// cap, else open a verification round; then, if a round is open that
  /// this actor has not served, add its share `own_fresh(c)`: the fresh
  /// ||b_c - A x_c||_1 over the actor's own rows, rows ascending. The
  /// actor whose share completes the round sums the P shares in actor
  /// order and latches iff the sum over r0 is <= tol. Returns true iff
  /// this call set the global stop, so exactly one caller records it.
  template <class OwnFresh>
  bool poll(index_t actor, index_t iter, OwnFresh&& own_fresh) {
    index_t latched = 0;
    for (index_t c = 0; c < columns_; ++c) {
      if (!column_stopped(c)) verify(actor, iter, c, own_fresh);
      latched += column_stopped(c) ? 1 : 0;
    }
    // racy-ok(stop): 0 -> 1; the exchange elects the one reporting caller.
    return latched == columns_ && !stopped() &&
           stop_.exchange(1, std::memory_order_relaxed) == 0;
  }

  /// One pass of an actor parked at the cap: poll, then yield the core.
  /// A parked actor serves every round, so it never holds one open.
  template <class OwnFresh>
  bool park(index_t actor, index_t iter, OwnFresh&& own_fresh) {
    const bool decided = poll(actor, iter, own_fresh);
    sched_yield();
    return decided;
  }

  /// Verification rounds opened so far for column c (0 before the first).
  [[nodiscard]] std::uint32_t rounds(index_t c) const {
    return round_id(rounds_[at(c)].v.load(std::memory_order_acquire));
  }
  /// True while column c has a round waiting for shares.
  [[nodiscard]] bool round_open(index_t c) const {
    return is_open(rounds_[at(c)].v.load(std::memory_order_acquire));
  }

 private:
  template <class T>
  struct alignas(kCacheLineBytes) Padded {
    std::atomic<T> v{};
  };

  static std::size_t at(index_t i) { return static_cast<std::size_t>(i); }

  [[nodiscard]] bool all_flags_up(index_t c) const {
    for (std::size_t s = at(c); s < flags_.size(); s += at(columns_)) {
      // racy-ok(flag): hint scan; a stale flag only defers verification.
      if (flags_[s].v.load(std::memory_order_relaxed) == 0) return false;
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

  /// One actor's share of column c's verification rounds. Only its actor
  /// writes it; the round word orders every access: the actor writes
  /// `value` before its acq_rel arrival on the word, the completing actor
  /// reads it after its own, and the next round's writes follow that
  /// actor's release store of the closed word. So no atomics are needed.
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

  void latch(index_t c, index_t iter) {
    // racy-ok(monotonic): 0 -> 1; the exchange elects the writer of
    // stop_iteration_, which is read after the join.
    if (latched_[at(c)].exchange(1, std::memory_order_relaxed) == 0) {
      stop_iteration_[at(c)] = iter;
    }
  }

  template <class OwnFresh>
  void verify(index_t actor, index_t iter, index_t c, OwnFresh& own_fresh) {
    std::atomic<std::uint64_t>& word = rounds_[at(c)].v;
    std::uint64_t seen = word.load(std::memory_order_acquire);
    if (!is_open(seen)) {
      if (!all_flags_up(c)) return;
      if (all_at_cap()) {
        latch(c, iter);
        return;
      }
      if (tolerance_ <= 0.0) return;
      const std::uint64_t opened = closed_word(round_id(seen) + 1) | kOpen;
      if (word.compare_exchange_strong(seen, opened,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        seen = opened;
      } else if (!is_open(seen)) {
        return;  // another poller's round opened and closed: try next poll
      }
    }
    // A round can only close once every actor has served it, so a round
    // this actor has not served is still the open one when it arrives.
    Share& mine = shares_[at(actor * columns_ + c)];
    if (mine.round == round_id(seen)) return;
    mine.value = own_fresh(c);
    mine.round = round_id(seen);
    const std::uint64_t arrived =
        word.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (arrivals(arrived) < actors_) return;
    double norm = 0.0;
    for (std::size_t s = at(c); s < shares_.size(); s += at(columns_)) {
      norm += shares_[s].value;
    }
    if (norm / r0_norm(c) <= tolerance_) latch(c, iter);
    word.store(closed_word(round_id(arrived)), std::memory_order_release);
  }

  index_t actors_;
  index_t columns_;
  double tolerance_;
  index_t cap_;
  std::vector<double> r0_norms_;
  std::vector<Padded<bool>> flags_;        ///< [actor * columns + column]
  std::vector<Padded<double>> partials_;   ///< same layout as flags_
  std::vector<Share> shares_;              ///< same layout as flags_
  std::vector<Padded<index_t>> counters_;  ///< local iterations per actor
  std::vector<Padded<std::uint64_t>> rounds_;  ///< per-column round word
  std::vector<std::atomic<int>> latched_;  ///< per-column stop latch
  std::vector<index_t> stop_iteration_;
  std::atomic<int> stop_{0};
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
