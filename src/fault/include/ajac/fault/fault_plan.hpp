#pragma once
// Deterministic fault injection for the asynchronous runtimes.
//
// A FaultPlan is a declarative description of a failure scenario: straggler
// workers with duty cycles, stale-read windows, dropped / duplicated /
// reordered messages, transient bit flips in off-diagonal matrix entries,
// and crash-and-recover workers. Four runtimes accept a plan and emit a
// FaultLog of everything they injected. Each honours stragglers, stale-read
// windows and crashes, plus:
//
//   solve_shared                       bit flips (it reads matrix entries
//                                      one by one; no messages to fault)
//   solve_mesh                         message drop and duplicate (its
//                                      per-edge queues are FIFO: no reorder)
//   solve_distributed                  message drop, duplicate and reorder
//                                      (block relaxations: no bit flips)
//
// A runtime rejects a plan naming a kind it does not honour
// (require_honoured in ajac/fault/actor_faults.hpp), so no scenario is
// silently vacuous. The shared and mesh runtimes draw every decision from
// one per-actor schedule, fault::ActorFaults; solve_shared_batch runs the
// plan once per column through solve_shared.
//
// Determinism is the whole point. Every injection decision is a pure hash
// of (plan seed, actor id, local counter, decision stream) via FaultClock —
// there is no stateful RNG shared between actors — so the decision sequence
// is a function of the plan alone, independent of thread interleaving,
// simulator event order, and wall-clock time. Two runs of the same plan at
// the same thread/rank count produce bitwise-identical fault logs. In the
// shared runtime that includes capped runs: a thread that reaches
// max_iterations parks (polling the termination flags) instead of
// overrunning the cap while slower flags are still down, so the executed
// (thread, iteration) set — and with it the full log — is exact (the
// determinism suites assert exactly this, including under TSan).
//
// The zero-fault path stays branch-free: a null/empty plan makes
// solve_shared dispatch to a template instantiation whose hooks are
// `if constexpr`-guarded no-ops, compiling to the pre-fault code.

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ajac/sparse/types.hpp"

namespace ajac::fault {

/// Keyed hash producing per-decision uniform bits. A decision is addressed
/// by (stream, a, b, c): e.g. "should the k-th message on edge s→r be
/// dropped?" is (kMessageDrop, edge_key, k, 0). Built from the SplitMix64
/// finalizer (see ajac/util/rng.hpp) chained over the key words.
class FaultClock {
 public:
  /// Decision streams. Separate streams make e.g. the drop and duplicate
  /// decisions for the same message independent.
  enum Stream : std::uint64_t {
    kStragglerStream = 1,
    kStaleStream = 2,
    kMessageDrop = 3,
    kMessageDuplicate = 4,
    kMessageReorder = 5,
    kBitFlipTrigger = 6,
    kBitFlipEntry = 7,
    kBitFlipBit = 8,
    kCrashStream = 9,
  };

  explicit constexpr FaultClock(std::uint64_t seed) noexcept : seed_(seed) {}

  [[nodiscard]] constexpr std::uint64_t bits(std::uint64_t stream,
                                             std::uint64_t a, std::uint64_t b,
                                             std::uint64_t c = 0) const noexcept {
    std::uint64_t z = mix(seed_ ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
    z = mix(z ^ mix(a + 0xbf58476d1ce4e5b9ULL));
    z = mix(z ^ mix(b + 0x94d049bb133111ebULL));
    z = mix(z ^ mix(c + 0xd6e8feb86659fd93ULL));
    return z;
  }

  /// Uniform double in [0, 1) for this decision.
  [[nodiscard]] constexpr double uniform(std::uint64_t stream, std::uint64_t a,
                                         std::uint64_t b,
                                         std::uint64_t c = 0) const noexcept {
    return static_cast<double>(bits(stream, a, b, c) >> 11) * 0x1.0p-53;
  }

  [[nodiscard]] constexpr bool bernoulli(double p, std::uint64_t stream,
                                         std::uint64_t a, std::uint64_t b,
                                         std::uint64_t c = 0) const noexcept {
    return p > 0.0 && uniform(stream, a, b, c) < p;
  }

  /// Uniform integer in [0, n), n >= 1. Modulo bias is irrelevant at the
  /// n's used here (row entry counts, mantissa bits).
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

/// Duty-cycle activity: active during the first round(duty * period)
/// iterations of every period-iteration window. duty = 1 is permanently
/// active, duty = 0 never. Pure function of the local iteration index, so
/// the window boundaries are deterministic per actor.
[[nodiscard]] inline bool duty_active(index_t period, double duty,
                                      index_t iteration) noexcept {
  const auto on = static_cast<index_t>(duty * static_cast<double>(period) + 0.5);
  return iteration % period < on;
}

/// Flip one bit (0 = lowest mantissa bit) of an IEEE-754 double. Bits
/// below 52 touch only the mantissa, so a finite value stays finite.
[[nodiscard]] inline double flip_bit(double value, int bit) noexcept {
  const auto u = std::bit_cast<std::uint64_t>(value);
  return std::bit_cast<double>(u ^ (std::uint64_t{1} << bit));
}

/// A worker that is periodically slow. In the shared runtime the actor
/// busy-waits extra_delay_us (wall clock) before each active iteration, in
/// either mode; in the simulator its compute time is scaled by
/// delay_factor. With duty = 1 this is the paper's permanently delayed
/// worker (Sec. VII-B), and the shared runtime's one delay mechanism.
struct StragglerSpec {
  index_t actor = 0;  ///< thread id / rank; must name a real actor
  double extra_delay_us = 100.0;  ///< shared runtime: per-iteration stall
  double delay_factor = 8.0;      ///< simulator: compute-time multiplier
  index_t period = 64;
  double duty = 1.0;
};

/// A worker that periodically stops observing its neighbors. In the shared
/// runtime the actor freezes its off-block reads at window entry (all
/// relaxations inside the window read that snapshot); in the simulator the
/// rank defers mailbox delivery while the window is active.
struct StaleReadSpec {
  index_t actor = 0;  ///< thread id / rank; -1 = every actor
  index_t period = 64;
  double duty = 0.25;
};

/// Per-edge message faults (mesh and simulator). Decisions are keyed by the
/// directed edge and the sender's per-edge message counter, so they are
/// independent of delivery order. A dropped put vanishes (it never counts
/// as in flight); a duplicated put is delivered twice, the copy one extra
/// latency later (a retransmission); a reordered put has its latency
/// multiplied by reorder_latency_factor, making younger puts overtake it
/// (raw RMA semantics, amplified; simulator only).
struct MessageFaultSpec {
  index_t sender = -1;    ///< -1 = any
  index_t receiver = -1;  ///< -1 = any
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  double reorder_probability = 0.0;
  double reorder_latency_factor = 8.0;
};

/// Transient single-bit corruption: with `probability` per (actor,
/// iteration, row), one off-diagonal entry of that row is read with one
/// bit flipped for that relaxation only (the matrix itself is untouched —
/// a soft error in a load, not in memory). Shared runtime only: the
/// mesh's and the simulator's block relaxations are not instrumented per
/// entry.
struct BitFlipSpec {
  index_t actor = -1;  ///< -1 = any
  double probability = 1e-3;
  int bit = -1;  ///< mantissa bit to flip; -1 = pseudorandom in [0, 52)
  index_t first_iteration = 0;  ///< active window [first, last)
  index_t last_iteration = std::numeric_limits<index_t>::max();
};

/// A worker that dies at a fixed local iteration and comes back after
/// dead_seconds (wall seconds in the shared runtime, simulated seconds in
/// the simulator). With reset_state_on_recovery the worker restarts from
/// the initial guess on its rows — lost memory — otherwise it resumes from
/// its state at crash time. In the simulator, messages that arrive while
/// the rank is down are lost (its window vanished with it).
struct CrashSpec {
  index_t actor = 0;
  index_t crash_iteration = 16;
  double dead_seconds = 1e-3;
  bool reset_state_on_recovery = false;
};

enum class FaultKind : std::uint8_t {
  kStragglerOn,       ///< straggler window entered
  kStaleWindowOn,     ///< stale-read window entered
  kMessageDrop,
  kMessageDuplicate,
  kMessageReorder,
  kBitFlip,
  kCrash,
  kRecover,
};

/// One injected fault. Deliberately carries logical coordinates only — no
/// wall-clock — so logs from two runs of the same plan compare bitwise.
struct FaultEvent {
  FaultKind kind{};
  index_t actor = 0;    ///< thread / rank (the sender for message faults)
  index_t counter = 0;  ///< local iteration; message faults: per-edge index
  index_t detail = 0;   ///< row (bit flips), receiver (message faults)
  index_t detail2 = 0;  ///< flipped bit index; otherwise 0
  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

using FaultLog = std::vector<FaultEvent>;

struct FaultPlan {
  std::uint64_t seed = 0x5eedfa17ULL;
  std::vector<StragglerSpec> stragglers;
  std::vector<StaleReadSpec> stale_reads;
  std::vector<MessageFaultSpec> message_faults;
  std::vector<BitFlipSpec> bit_flips;
  std::vector<CrashSpec> crashes;

  [[nodiscard]] bool empty() const noexcept {
    return stragglers.empty() && stale_reads.empty() &&
           message_faults.empty() && bit_flips.empty() && crashes.empty();
  }

  [[nodiscard]] FaultClock clock() const noexcept { return FaultClock{seed}; }

  /// Check every spec against the actor count (threads or ranks); throws
  /// std::logic_error on out-of-range actors, probabilities outside [0, 1],
  /// non-positive periods, non-finite durations or factors, empty bit-flip
  /// windows, or duplicate per-actor specs of one kind.
  void validate(index_t num_actors) const;
};

/// Human-readable name of a fault kind (stable; used in the JSON log).
[[nodiscard]] const char* kind_name(FaultKind kind) noexcept;

/// Sort a log into its canonical order (actor, counter, kind, detail).
/// Per-actor logs are appended in actor order by the runtimes, but within
/// an actor different fault kinds may interleave; canonical order makes
/// logs from different runs directly comparable.
void canonicalize(FaultLog& log);

/// Serialize a log as a JSON array of event objects.
[[nodiscard]] std::string to_json(const FaultLog& log);

}  // namespace ajac::fault
