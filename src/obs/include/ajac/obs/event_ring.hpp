#pragma once
// Lock-free per-actor telemetry ring: the transport under the live
// convergence monitor (ajac/obs/monitor.hpp).
//
// Each solver actor (thread / simulated rank) owns exactly one EventRing
// and publishes coarse progress beacons into it at a configurable stride;
// a drainer thread polls all rings concurrently. The protocol is a
// broadcast SPSC seqlock ring:
//
//  - Sole writer. Only the owning actor ever publishes; the role is
//    machine-checked (SoleWriterRole + AJAC_REQUIRES, the same discipline
//    as obs::ActorSlot and runtime::SharedVector).
//  - Wait-free producer, drop-oldest. publish() never blocks, spins, or
//    allocates: it overwrites the oldest slot unconditionally, so a slow
//    (or absent) drainer can never perturb the solve it is observing.
//    Losses are counted on the consumer side (Cursor::dropped), derived
//    from the monotonic beacon index — nothing is silently discarded.
//  - Seqlock slots. Every slot carries a sequence word holding 2*h+1
//    while beacon #h is being written and 2*h+2 once it is complete, so a
//    reader can tell exactly which beacon occupies the slot and whether
//    it raced an overwrite. As in shared_vector.hpp the formulation uses
//    per-word acquire/release accesses, never fences: TSan models these
//    precisely, so the drainer protocol is verifiable under the tsan
//    preset (the ISSUE's zero-race requirement).
//
// Memory-order contract (mirrors SharedVector::write/read_versioned):
//  writer:  seq <- 2h+1 (relaxed; only the sole writer mutates seq, so
//           this store needs no ordering — a reader seeing it retries),
//           payload words (release; pair with the reader's acquire loads
//           so a reader that saw a new word must then see the new seq),
//           seq <- 2h+2 (release; publishes the payload),
//           head <- h+1 (release; publishes slot availability).
//  reader:  head (acquire), seq == 2h+2 (acquire), payload (acquire),
//           seq revalidate (relaxed — pinned by the payload acquires;
//           see racy-ok(seqlock-validate)).

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "ajac/util/annotate.hpp"
#include "ajac/util/check.hpp"

namespace ajac::obs {

/// One coarse progress sample. All counters are cumulative over the
/// actor's local run, so any single beacon is a complete summary and a
/// dropped predecessor loses resolution, never information.
struct Beacon {
  double ts_us = 0.0;  ///< wall us (shared runtime) or sim us (distsim)
  std::int64_t iteration = 0;       ///< local iterations completed
  std::uint64_t relaxations = 0;    ///< cumulative row relaxations
  double own_residual_1 = 0.0;      ///< own-block residual 1-norm
  std::uint64_t policy_draws = 0;   ///< cumulative sampled-policy draws
};

/// Broadcast SPSC seqlock ring of Beacons. Capacity is rounded up to a
/// power of two. Readers are independent: each carries its own Cursor,
/// so any number of concurrent drainers may poll one ring.
class EventRing {
 public:
  /// The publishing actor's sole-writer capability: claim it with
  /// `ring.writer.assert_held()` once the hub's one-ring-per-actor
  /// contract has made this thread the publisher.
  SoleWriterRole writer;

  explicit EventRing(std::size_t capacity = 256)
      : size_(round_up_pow2(capacity)),
        slots_(new Slot[size_]),
        mask_(size_ - 1) {
    for (std::size_t i = 0; i < size_; ++i) {
      // racy-ok(init): single-threaded construction, no reader exists yet.
      slots_[i].seq.store(0, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return size_; }

  /// Total beacons ever published (monotonic; readable concurrently).
  [[nodiscard]] std::uint64_t published() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  /// Wait-free, allocation-free publish; overwrites the oldest slot.
  void publish(const Beacon& b) noexcept AJAC_REQUIRES(writer) {
    const std::uint64_t h = head_local_;
    Slot& s = slots_[static_cast<std::size_t>(h & mask_)];
    // racy-ok(seqlock-open): opening (odd) store of the writer's own
    // counter — a reader that sees it simply retries the slot; the
    // release stores below carry the publication.
    s.seq.store(2 * h + 1, std::memory_order_relaxed);
    // Release payload stores: a reader that acquires a new word must
    // also see the odd sequence above, so it cannot pair a new payload
    // with the old sequence (the TSan-modelable form of the classic
    // seqlock write fence; see shared_vector.hpp).
    s.word[0].store(std::bit_cast<std::uint64_t>(b.ts_us),
                    std::memory_order_release);
    s.word[1].store(static_cast<std::uint64_t>(b.iteration),
                    std::memory_order_release);
    s.word[2].store(b.relaxations, std::memory_order_release);
    s.word[3].store(std::bit_cast<std::uint64_t>(b.own_residual_1),
                    std::memory_order_release);
    s.word[4].store(b.policy_draws, std::memory_order_release);
    s.seq.store(2 * h + 2, std::memory_order_release);
    head_local_ = h + 1;
    head_.store(h + 1, std::memory_order_release);
  }

  /// Reader-side position: the next beacon index to read plus the count
  /// of beacons this reader lost to overwrites. Value-type — each reader
  /// owns its cursor; the ring holds no reader state.
  struct Cursor {
    std::uint64_t next = 0;
    std::uint64_t dropped = 0;
  };

  /// Pop the next available beacon into `out`. Returns false when the
  /// reader has caught up. Lapped beacons (overwritten before this
  /// reader got to them) are skipped and counted in `c.dropped`; the
  /// call never spins on the writer.
  bool poll(Cursor& c, Beacon& out) const noexcept {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    for (;;) {
      if (c.next >= head) return false;
      if (head - c.next > size_) {
        // Fell more than one ring behind: everything older than the
        // ring's span is gone. Jump to the oldest possibly-live beacon.
        const std::uint64_t oldest = head - size_;
        c.dropped += oldest - c.next;
        c.next = oldest;
      }
      const std::uint64_t h = c.next;
      const Slot& s = slots_[static_cast<std::size_t>(h & mask_)];
      const std::uint64_t want = 2 * h + 2;
      // Acquire pairs with the writer's closing release store: seeing
      // `want` here means the matching payload stores are visible below.
      const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
      if (s1 != want) {
        // The head acquire above guarantees the closing store for every
        // h < head is visible, so a mismatch can only be a *later*
        // occupant (the writer lapped this slot since the head load).
        AJAC_DBG_CHECK(s1 > want);
        ++c.dropped;
        ++c.next;
        continue;
      }
      Beacon b;
      // Acquire payload loads: they pin the revalidation load below
      // after the payload reads (replacing the classic read fence) and
      // pair with the writer's release stores.
      b.ts_us = std::bit_cast<double>(
          s.word[0].load(std::memory_order_acquire));
      b.iteration = static_cast<std::int64_t>(
          s.word[1].load(std::memory_order_acquire));
      b.relaxations = s.word[2].load(std::memory_order_acquire);
      b.own_residual_1 = std::bit_cast<double>(
          s.word[3].load(std::memory_order_acquire));
      b.policy_draws = s.word[4].load(std::memory_order_acquire);
      // racy-ok(seqlock-validate): the closing check may be relaxed —
      // the acquire payload loads above already order it after them.
      const std::uint64_t s2 = s.seq.load(std::memory_order_relaxed);
      if (s2 != want) {
        // Overwritten mid-read; the torn payload is discarded.
        ++c.dropped;
        ++c.next;
        continue;
      }
      out = b;
      ++c.next;
      return true;
    }
  }

 private:
  static constexpr std::size_t kPayloadWords = 5;

  static std::size_t round_up_pow2(std::size_t v) noexcept {
    if (v < 2) return 2;
    return std::bit_ceil(v);
  }

  // One 64-byte line per slot: the sequence word plus the five payload
  // words fit in it (alignas pads the rest), so neighbouring slots never
  // false-share.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> word[kPayloadWords];
  };
  static_assert(sizeof(Slot) == 64);

  std::size_t size_;
  std::unique_ptr<Slot[]> slots_;  // aligned array new honours alignas(64)
  std::uint64_t mask_;
  alignas(64) std::atomic<std::uint64_t> head_{0};
  // Writer-private copy of head: publish() never re-reads the atomic.
  alignas(64) std::uint64_t head_local_ AJAC_SOLE_WRITER(writer) = 0;
};

}  // namespace ajac::obs
