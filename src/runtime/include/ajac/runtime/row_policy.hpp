#pragma once
// Pluggable row-selection policies for the asynchronous runtimes.
//
// The paper's schedule — every worker sweeps its block in natural order —
// is one point in a larger design space. Avron/Druinsky/Gupta
// (arXiv:1304.6475) prove convergence rates for uniform-random row
// selection; the uniform sampler here is the executable check of that
// bound (tests/runtime/policy_rate_test.cpp). It loses to natural order on
// wall time on every measured fixture (DESIGN.md §5e), so it is a
// rate-bound check, not a speed option. The shared runtime (solve_shared)
// and the distributed simulator plug the per-worker sampler into their
// relaxation loops.
//
// Determinism discipline mirrors fault::FaultClock: every draw is a pure
// hash of (seed, stream, worker, iteration, slot) — no stateful RNG, no
// cross-worker state — so a schedule is a function of the seed alone,
// independent of thread interleaving, and replayable through the Φ(l)
// propagation model. Policy draws and fault decisions must never perturb
// each other, so PolicyClock salts its seed: at equal user seeds the two
// clocks hash into unrelated streams (the fault-determinism contracts rely
// on this; see tests/runtime/policy_determinism_test.cpp).

#include <cstdint>

#include "ajac/sparse/types.hpp"
#include "ajac/util/check.hpp"

namespace ajac::runtime {

/// How a worker picks the next row of its block to relax.
enum class RowPolicy : std::uint8_t {
  kNaturalOrder = 0,   ///< ascending sweep (the paper's schedule; default)
  kUniformRandom = 1,  ///< iid uniform draws from the own block
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
  }
  return "?";
}

/// Keyed hash producing per-draw uniform bits. A draw is addressed by
/// (stream, worker, iteration, slot); the construction is FaultClock's
/// SplitMix64-finalizer chain with the seed salted so that policy draws
/// and fault decisions made from the same user seed are independent.
class PolicyClock {
 public:
  /// Draw streams; the stream id is hashed into every draw.
  enum Stream : std::uint64_t {
    kRowPick = 1,  ///< uniform row draw
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
/// synchronizes workers, and `next` neither allocates nor writes.
class RowSampler {
 public:
  RowSampler(RowPolicy policy, std::uint64_t seed, index_t worker, index_t lo,
             index_t hi)
      : policy_(policy),
        clock_(seed),
        worker_(static_cast<std::uint64_t>(worker)),
        lo_(lo),
        size_(hi - lo) {
    AJAC_CHECK(hi >= lo);
  }

  [[nodiscard]] RowPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] index_t block_size() const noexcept { return size_; }

  /// Global row for draw `slot` of local iteration `iter`: a uniform draw
  /// from the kRowPick stream. Requires a non-empty block (workers with
  /// empty blocks make zero draws).
  [[nodiscard]] index_t next(index_t iter, index_t slot) const noexcept {
    return lo_ + static_cast<index_t>(clock_.pick(
                     static_cast<std::uint64_t>(size_), PolicyClock::kRowPick,
                     worker_, static_cast<std::uint64_t>(iter),
                     static_cast<std::uint64_t>(slot)));
  }

 private:
  RowPolicy policy_;
  PolicyClock clock_;
  std::uint64_t worker_;
  index_t lo_;
  index_t size_;
};

}  // namespace ajac::runtime
