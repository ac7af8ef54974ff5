#pragma once
// Pluggable row-selection policies for the asynchronous runtimes.
//
// The paper's schedule — every worker sweeps its block in natural order —
// is one point in a larger design space. Avron/Druinsky/Gupta
// (arXiv:1304.6475) prove convergence rates for uniform-random row
// selection, and residual-weighted sampling relaxes the "hottest" rows
// (largest |r_i|) more often. Both are implemented here as per-worker
// samplers that the shared runtime (solve_shared) and the distributed
// simulator plug into their relaxation loops.
//
// Determinism discipline mirrors fault::FaultClock: every draw is a pure
// hash of (seed, stream, worker, iteration, slot) — no stateful RNG, no
// cross-worker state — so a schedule is a function of the seed alone,
// independent of thread interleaving, and replayable through the Φ(l)
// propagation model. Policy draws and fault decisions must never perturb
// each other, so PolicyClock salts its seed: at equal user seeds the two
// clocks hash into unrelated streams (the fault-determinism contracts rely
// on this; see tests/runtime/policy_determinism_test.cpp).
//
// The weighted sampler never reads the live residual per draw. Every
// `weight_refresh` local iterations, at the iteration boundary, the runtime
// recomputes the *true* own-row residuals from a racy-but-consistent-enough
// snapshot of x (SharedVector::read_snapshot),
// smooths them through the row stencil — w_i = (|A| |r|)_i restricted to
// the own block — and rebuilds a prefix sum over the smoothed weights,
// clamped and mixed with a uniform floor (see kWeightCap / kUniformMix);
// between refreshes the weights are frozen. Each ingredient is
// load-bearing:
//
//  * TRUE residuals, not the thread's local_r: local_r holds each row's
//    *pre-update* residual from its last relaxation, which under repeated
//    in-place draws is stale in exactly the way that misleads the sampler.
//  * Stencil smoothing: a snapshot taken right after a row was relaxed
//    shows it at ~0, but relaxing its neighbors regrows it within a few
//    draws — weights frozen on the raw snapshot spend the whole window
//    hammering the hot half of a coupled component while starving the
//    freshly-zeroed half, which degrades a 10x win over natural order to
//    parity (measured on the skewed fixture in policy_rate_test.cpp).
//    (|A| |r|)_i marks the entire component hot: it is the residual mass
//    one propagation step away from row i, the same lens as the paper's
//    propagation-matrix model.
//
// The refresh keeps the hot path allocation-free and makes the draw
// sequence a deterministic function of (seed, snapshot sequence) instead
// of the racy instantaneous residual.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ajac/sparse/types.hpp"
#include "ajac/util/check.hpp"

namespace ajac::runtime {

/// How a worker picks the next row of its block to relax.
enum class RowPolicy : std::uint8_t {
  kNaturalOrder = 0,      ///< ascending sweep (the paper's schedule; default)
  kUniformRandom = 1,     ///< iid uniform draws from the own block
  kResidualWeighted = 2,  ///< draws ~ stencil-smoothed residual snapshot
};

/// Sampled policies relax rows in place (Gauss–Seidel-style commit: each
/// draw reads the latest own-block values, like local_gauss_seidel) and
/// draw block-size rows per local iteration, so iteration counting,
/// termination, and total_relaxations keep their natural-order meaning.
[[nodiscard]] constexpr bool is_sampled(RowPolicy policy) noexcept {
  return policy != RowPolicy::kNaturalOrder;
}

/// Stable CLI/report name of a policy.
[[nodiscard]] constexpr const char* policy_name(RowPolicy policy) noexcept {
  switch (policy) {
    case RowPolicy::kNaturalOrder:
      return "natural";
    case RowPolicy::kUniformRandom:
      return "uniform";
    case RowPolicy::kResidualWeighted:
      return "weighted";
  }
  return "?";
}

/// Keyed hash producing per-draw uniform bits. A draw is addressed by
/// (stream, worker, iteration, slot); the construction is FaultClock's
/// SplitMix64-finalizer chain with the seed salted so that policy draws
/// and fault decisions made from the same user seed are independent.
class PolicyClock {
 public:
  /// Draw streams. Separate streams make the uniform fallback and the
  /// weighted inversion for the same coordinates independent decisions.
  enum Stream : std::uint64_t {
    kRowPick = 1,     ///< uniform row draw
    kWeightPick = 2,  ///< residual-weighted draw (prefix-sum inversion)
  };

  /// Distinguishes the policy stream family from FaultClock's at equal
  /// seeds. Never change it: golden policy traces pin the draws.
  static constexpr std::uint64_t kSeedSalt = 0xa5a5c0dedeadbeefULL;

  explicit constexpr PolicyClock(std::uint64_t seed) noexcept
      : seed_(seed ^ kSeedSalt) {}

  [[nodiscard]] constexpr std::uint64_t bits(std::uint64_t stream,
                                             std::uint64_t a, std::uint64_t b,
                                             std::uint64_t c = 0) const noexcept {
    std::uint64_t z = mix(seed_ ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
    z = mix(z ^ mix(a + 0xbf58476d1ce4e5b9ULL));
    z = mix(z ^ mix(b + 0x94d049bb133111ebULL));
    z = mix(z ^ mix(c + 0xd6e8feb86659fd93ULL));
    return z;
  }

  /// Uniform double in [0, 1) for this draw.
  [[nodiscard]] constexpr double uniform(std::uint64_t stream, std::uint64_t a,
                                         std::uint64_t b,
                                         std::uint64_t c = 0) const noexcept {
    return static_cast<double>(bits(stream, a, b, c) >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, n), n >= 1. Modulo bias is irrelevant at the
  /// n's used here (block row counts).
  [[nodiscard]] constexpr std::uint64_t pick(std::uint64_t n,
                                             std::uint64_t stream,
                                             std::uint64_t a, std::uint64_t b,
                                             std::uint64_t c = 0) const noexcept {
    return bits(stream, a, b, c) % n;
  }

 private:
  static constexpr std::uint64_t mix(std::uint64_t z) noexcept {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t seed_;
};

/// Per-worker row sampler over the contiguous own block [lo, hi). One
/// instance per worker, no shared mutable state: sampling never
/// synchronizes workers. Construction sizes the weighted prefix-sum buffer
/// once; the hot path (`next`) is allocation-free.
class RowSampler {
 public:
  RowSampler(RowPolicy policy, std::uint64_t seed, index_t worker, index_t lo,
             index_t hi, index_t weight_refresh)
      : policy_(policy),
        clock_(seed),
        worker_(static_cast<std::uint64_t>(worker)),
        lo_(lo),
        size_(hi - lo),
        weight_refresh_(weight_refresh) {
    AJAC_CHECK(hi >= lo);
    AJAC_CHECK_MSG(weight_refresh >= 1,
                   "weight_refresh " << weight_refresh << " < 1");
    if (policy_ == RowPolicy::kResidualWeighted) {
      prefix_.assign(static_cast<std::size_t>(size_), 0.0);
    }
  }

  [[nodiscard]] RowPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] index_t block_size() const noexcept { return size_; }

  /// True when the weighted prefix sum must be rebuilt before local
  /// iteration `iter` starts. Natural/uniform never refresh.
  [[nodiscard]] bool refresh_due(index_t iter) const noexcept {
    return policy_ == RowPolicy::kResidualWeighted &&
           iter % weight_refresh_ == 0;
  }

  /// Uniform-exploration mass blended into every weighted snapshot: each
  /// row receives an extra kUniformMix * mean on top of its own (clamped)
  /// weight. Pure greedy sampling is not ergodic — a row whose snapshot
  /// weight is stale-small (its true residual grew because a neighbor was
  /// relaxed after the snapshot) would get weight ~0 and never be drawn
  /// again, parking the solve at a non-solution fixed point. The floor
  /// guarantees every row a draw probability of at least kUniformMix /
  /// (n (1 + kUniformMix)), so stale rows are revisited within O(n)
  /// draws. Never change it: golden policy traces pin the draws.
  static constexpr double kUniformMix = 0.25;

  /// Per-row weights are clamped to kWeightCap * mean(|w|) before the
  /// exploration floor. Weights are frozen for a whole refresh window
  /// (weight_refresh iterations = many block-size draw rounds), and
  /// relaxing a row kills its actual residual on the first draw — so
  /// sampling *proportional* to a frozen snapshot re-draws the few
  /// hottest rows long after they stopped being hot, wasting most of the
  /// window. The clamp bounds any row's draw rate at ~kWeightCap times
  /// uniform-within-the-hot-set while keeping cold rows cold, which is
  /// what makes residual weighting actually beat natural order on
  /// skewed problems (see tests/runtime/policy_rate_test.cpp). Never
  /// change it: golden policy traces pin the draws.
  static constexpr double kWeightCap = 2.0;

  /// Rebuild the prefix sum from `weight(i)` over global rows i in
  /// [lo, hi). The callable supplies the per-row residual snapshot (sign
  /// is ignored); the stored weight is min(|w_i|, kWeightCap * mean(|w|))
  /// + kUniformMix * mean(clamped) — see kWeightCap and kUniformMix.
  template <typename WeightFn>
  void refresh_weights(WeightFn&& weight) {
    if (size_ == 0) {
      total_ = 0.0;
      return;
    }
    const auto n = static_cast<double>(size_);
    double raw_total = 0.0;
    for (index_t li = 0; li < size_; ++li) {
      const double w = std::abs(weight(lo_ + li));
      prefix_[static_cast<std::size_t>(li)] = w;  // raw, cumulated below
      raw_total += w;
    }
    if (raw_total <= 0.0) {
      total_ = 0.0;  // next() falls back to the uniform stream
      return;
    }
    const double cap = kWeightCap * raw_total / n;
    double clamped_total = 0.0;
    for (index_t li = 0; li < size_; ++li) {
      clamped_total += std::min(prefix_[static_cast<std::size_t>(li)], cap);
      prefix_[static_cast<std::size_t>(li)] = clamped_total;
    }
    const double floor = kUniformMix * clamped_total / n;
    for (index_t li = 0; li < size_; ++li) {
      prefix_[static_cast<std::size_t>(li)] +=
          floor * static_cast<double>(li + 1);
    }
    total_ = clamped_total * (1.0 + kUniformMix);
  }

  /// Global row for draw `slot` of local iteration `iter`. Requires a
  /// non-empty block (workers with empty blocks make zero draws).
  [[nodiscard]] index_t next(index_t iter, index_t slot) const noexcept {
    const auto it = static_cast<std::uint64_t>(iter);
    const auto sl = static_cast<std::uint64_t>(slot);
    if (policy_ == RowPolicy::kResidualWeighted && total_ > 0.0) {
      const double target =
          clock_.uniform(PolicyClock::kWeightPick, worker_, it, sl) * total_;
      // First row whose cumulative weight exceeds the target; upper_bound
      // skips zero-weight rows (their prefix equals the predecessor's).
      const auto pos = static_cast<index_t>(
          std::upper_bound(prefix_.begin(), prefix_.end(), target) -
          prefix_.begin());
      return lo_ + std::min(pos, size_ - 1);
    }
    // kUniformRandom, or weighted over an all-zero snapshot (converged
    // block): uniform draw from its own stream.
    return lo_ + static_cast<index_t>(
                     clock_.pick(static_cast<std::uint64_t>(size_),
                                 PolicyClock::kRowPick, worker_, it, sl));
  }

 private:
  RowPolicy policy_;
  PolicyClock clock_;
  std::uint64_t worker_;
  index_t lo_;
  index_t size_;
  index_t weight_refresh_;
  std::vector<double> prefix_;  ///< cumulative weight snapshot (weighted only)
  double total_ = 0.0;
};

}  // namespace ajac::runtime
