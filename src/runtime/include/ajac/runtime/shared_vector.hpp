#pragma once
// Shared value array for the asynchronous shared-memory runtime.
//
// This is the C++-legal form of the paper's relaxation scheme: "writing or
// reading an aligned double is atomic on modern Intel processors" (Sec. V)
// becomes an array of std::atomic<double> accessed with relaxed ordering.
// The races between plain read() and write() are *intended* — they are
// what makes the method asynchronous — and because every access is atomic
// they are benign under both the C++ memory model and ThreadSanitizer
// (relaxed atomics are never data races, so a TSan run needs no
// annotations here).
//
// When tracing is on, each entry carries a seqlock so a reader can pair a
// value with the write count ("version") that produced it, feeding the
// propagation-matrix analysis of Sec. IV-A/Fig. 2. The seqlock uses
// per-element acquire/release orderings rather than std::atomic_thread_fence:
// TSan does not model fences, but it models acquire/release accesses
// precisely, so this formulation is verifiable while the fence-based one is
// not (and tools/lint.sh bans raw fences outside ajac/util/annotate.hpp).
//
// Concurrency contract: any number of concurrent readers; at most one
// writer per element at a time (in the runtime each row has exactly one
// owning thread). A second concurrent writer to the same element would
// corrupt the seqlock protocol; debug builds assert against it.
//
// Construction leaves the values indeterminate: they live in a plain,
// default-initialized double array accessed only through
// std::atomic_ref, so allocating an n-row vector touches no page and the
// solver's actor-parallel prologue can first-touch and fill each block
// from the thread that owns it. Every element must be written (init or
// write) before it is read.
//
// The writer side of that contract is machine-checked: init() and write()
// require the vector's SoleWriterRole capability (-Wthread-safety), which
// a worker claims with `x.writer_role().assert_held()` once the partition
// has made it the sole writer of its rows. Readers never need the role —
// concurrent racy reads are the point — so read()/read_versioned()/
// version() are unannotated.
//
// False sharing at block boundaries: the runtime partitions rows into
// contiguous per-thread blocks, so the only elements two threads both
// write are the ones on either side of a block boundary — and if those
// land in one 64-byte cache line, the neighbouring threads ping-pong that
// line on every relaxation even though they never write the same element.
// Both arrays therefore use CacheAlignedAllocator: the base address is
// line-aligned, so element 8m sits exactly on a line boundary and any
// boundary at a multiple of 8 rows (all equal-block partitions of the
// power-of-two bench problems) shares no lines at all; for odd-sized
// blocks at most the single straddling line is shared, never an
// accidental extra one from a misaligned base.

#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "ajac/sparse/types.hpp"
#include "ajac/util/aligned.hpp"
#include "ajac/util/annotate.hpp"
#include "ajac/util/check.hpp"

namespace ajac::runtime {

class SharedVector {
 public:
  explicit SharedVector(index_t n, bool traced = false)
      : values_(static_cast<std::size_t>(n)), traced_(traced) {
    if (traced_) {
      seq_ = SeqArray(static_cast<std::size_t>(n));
      // racy-ok(init): single-threaded construction, no reader exists yet.
      for (auto& s : seq_) s.store(0, std::memory_order_relaxed);
    }
  }

  /// The sole-writer capability of this vector. The runtime's partition
  /// (one owning thread per row block) is what actually confers the role;
  /// claim it with writer_role().assert_held() before mutating.
  [[nodiscard]] const SoleWriterRole& writer_role() const
      AJAC_RETURN_CAPABILITY(writer_role_) {
    return writer_role_;
  }

  /// Single-threaded initialization (before the solve's threads start).
  void init(std::span<const double> x) AJAC_REQUIRES(writer_role_) {
    AJAC_DBG_CHECK(x.size() == values_.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      // racy-ok(init): single-threaded setup; the OpenMP fork publishes it.
      cell(i).store(x[i], std::memory_order_relaxed);
    }
  }

  /// First write of element i, before the concurrent phase (the solver's
  /// actor-parallel prologue: each owner fills its own rows). Unlike
  /// write() it leaves the version at 0, as init() does.
  void init(index_t i, double v) AJAC_REQUIRES(writer_role_) {
    AJAC_DBG_CHECK(in_range(i));
    // racy-ok(init): the prologue's join publishes it before any reader.
    cell(i).store(v, std::memory_order_relaxed);
  }

  /// Plain racy read (the paper's scheme).
  [[nodiscard]] double read(index_t i) const {
    AJAC_DBG_CHECK(in_range(i));
    // racy-ok(intended-race): the paper's racy read; tearing-free because
    // the element is an aligned double accessed atomically.
    return cell(i).load(std::memory_order_relaxed);
  }

  /// Read value + version consistently (seqlock). Only valid when traced.
  ///
  /// Retry discipline: a reader that observes a write in progress (odd
  /// sequence number) or a torn interval (s1 != s2) spins with a CPU relax
  /// hint for a bounded number of attempts, then yields the OS thread —
  /// on oversubscribed machines the writer may be descheduled mid-write
  /// and a bare busy-wait would burn its whole time slice.
  ///
  /// `retries`, when non-null, is incremented once per failed attempt —
  /// the seqlock contention signal the metrics layer reports. The counter
  /// must be thread-local to the caller (it is written without atomics).
  [[nodiscard]] std::pair<double, index_t> read_versioned(
      index_t i, std::uint64_t* retries = nullptr) const {
    AJAC_DBG_CHECK(in_range(i));
    AJAC_DBG_CHECK_MSG(traced_, "read_versioned on an untraced SharedVector");
    const auto& seq = seq_[static_cast<std::size_t>(i)];
    const std::atomic_ref<double> value = cell(i);
    for (int spins = 0;; ++spins) {
      // Acquire pairs with the writer's release of the closing sequence
      // number: after seeing an even s1 we see the matching value.
      const std::int64_t s1 = seq.load(std::memory_order_acquire);
      if (!(s1 & 1)) {
        // The acquire load of the value keeps the s2 load below from being
        // reordered before it (this replaces the acquire fence of the
        // classic formulation), and pairs with the writer's release store
        // of the value: a reader that sees the new value must then see
        // s2 >= s1 + 1 and retry.
        const double v = value.load(std::memory_order_acquire);
        // racy-ok(seqlock-validate): the closing check may be relaxed — the
        // acquire value load above already orders it after the value read.
        const std::int64_t s2 = seq.load(std::memory_order_relaxed);
        if (s1 == s2) return {v, static_cast<index_t>(s1 / 2)};
      }
      if (retries != nullptr) ++*retries;
      if (spins < kSpinLimit) {
        cpu_relax();
      } else {
        std::this_thread::yield();
        spins = 0;
      }
    }
  }

  void write(index_t i, double v) AJAC_REQUIRES(writer_role_) {
    AJAC_DBG_CHECK(in_range(i));
    if (traced_) {
      auto& seq = seq_[static_cast<std::size_t>(i)];
      // racy-ok(seqlock-open): only the sole writer mutates seq, so its own
      // last store is the only thing this load can observe.
      const std::int64_t s = seq.load(std::memory_order_relaxed);
      AJAC_DBG_CHECK_MSG(!(s & 1),
                         "concurrent writers on SharedVector element " << i);
      // racy-ok(seqlock-open): opening (odd) store needs no release — a
      // reader seeing it simply retries; the value + closing stores below
      // carry the publication.
      seq.store(s + 1, std::memory_order_relaxed);
      // Release: a reader that acquires this value also sees the odd
      // sequence number above, so it cannot pair the new value with the
      // old version (replaces the release fence of the classic seqlock).
      cell(i).store(v, std::memory_order_release);
      seq.store(s + 2, std::memory_order_release);
    } else {
      // racy-ok(intended-race): the paper's racy write (untraced path).
      cell(i).store(v, std::memory_order_relaxed);
    }
  }

  /// Number of completed writes to element i (traced vectors only).
  [[nodiscard]] index_t version(index_t i) const {
    AJAC_DBG_CHECK(in_range(i));
    AJAC_DBG_CHECK(traced_);
    return static_cast<index_t>(
        seq_[static_cast<std::size_t>(i)].load(std::memory_order_acquire) /
        2);
  }

  [[nodiscard]] bool traced() const noexcept { return traced_; }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }

 private:
  static constexpr int kSpinLimit = 64;

  [[nodiscard]] bool in_range(index_t i) const noexcept {
    return i >= 0 && static_cast<std::size_t>(i) < values_.size();
  }

  [[nodiscard]] std::atomic_ref<double> cell(std::size_t i) const noexcept {
    return std::atomic_ref<double>(values_[i]);
  }
  [[nodiscard]] std::atomic_ref<double> cell(index_t i) const noexcept {
    return cell(static_cast<std::size_t>(i));
  }

  using ValueArray = UninitVector<double>;
  using SeqArray = std::vector<std::atomic<std::int64_t>,
                               CacheAlignedAllocator<std::atomic<std::int64_t>>>;

  // mutable: atomic_ref needs a non-const referent even for loads.
  mutable ValueArray values_;
  SeqArray seq_;
  bool traced_;
  SoleWriterRole writer_role_;
};

}  // namespace ajac::runtime
