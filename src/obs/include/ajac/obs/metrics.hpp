#pragma once
// Low-overhead metrics + timeline tracing for the asynchronous runtimes.
//
// The paper's "surprising results" (Sec. VII) hinge on quantities a plain
// SharedResult cannot show: per-thread relaxation rates, the staleness
// distribution of cross-block reads, flag-raise/termination timelines, and
// message latencies in the distributed simulation. A MetricsRegistry makes
// those visible without perturbing the run it observes:
//
//  * Per-actor slots. Every worker (OpenMP thread / simulated rank) owns
//    one cache-line-aligned ActorSlot and is the only writer to it, so
//    recording a counter or histogram sample is a plain store — no atomics,
//    no locks, no cross-thread traffic. Aggregation happens once, at
//    snapshot() time, after the runtime has joined its workers (the join is
//    the happens-before edge that makes the merge race-free).
//
//  * Log-bucketed histograms (HDR-style). Bucket k holds values whose
//    bit_width is k, i.e. [2^(k-1), 2^k); recording is a bit_width + three
//    adds. Good enough to separate "read the neighbor's latest value" from
//    "read a value 100 versions stale" without per-sample allocation.
//
//  * A bounded timeline. Each slot optionally records TraceEvents
//    (iteration spans, flag-raise instants, fault injections) up to a cap;
//    past the cap events are counted as dropped, never silently lost.
//    obs::TraceEventSink exports the timeline as Chrome trace-event JSON
//    viewable in Perfetto / chrome://tracing.
//
// Enabling is opt-in per run: SharedOptions::metrics, DistOptions::metrics,
// and SolveOptions::metrics all default to nullptr, and on a null registry
// every recording hook returns at once (no timer read, no slot write), so
// a disabled run pays one branch per hook and its results are bitwise
// those of an instrumented run.
//
// Threading contract: reset() and snapshot() are single-threaded (call
// them before starting / after joining the workers); between them, actor t
// may only be touched by worker t. That contract is machine-checked
// (-Wthread-safety): every ActorSlot carries a SoleWriterRole capability
// guarding its counters, histograms, and timeline, and every recording
// method requires it — a worker claims `slot.owner.assert_held()` for its
// own slot, and the post-join aggregation claims the read side with
// `slot.owner.assert_shared()`.

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ajac/sparse/types.hpp"
#include "ajac/util/annotate.hpp"

namespace ajac::obs {

/// Version of the JSON snapshot schema emitted by obs::to_json. Bump when
/// renaming/removing fields; additions are backward compatible.
inline constexpr int kMetricsSchemaVersion = 5;

/// Monotone per-actor counters. Shared-runtime and distsim populate
/// disjoint subsets; unused counters stay zero and are still emitted (the
/// schema is stable across runtimes).
enum class Counter : std::size_t {
  kRelaxations = 0,     ///< row relaxations performed
  kIterations,          ///< local iterations completed
  kSeqlockRetries,      ///< versioned-read retry loops (traced vectors)
  kFlagRaises,          ///< 0->1 transitions of the termination flag
  kSpinWaitNs,          ///< injected busy-wait (stragglers, crash dead time)
  kResidualCheckNs,     ///< time in the racy convergence-norm scan
  kPolishSweeps,        ///< sequential cleanup sweeps after the run
  kFaultEvents,         ///< fault injections observed by this actor
  kLocalReads,          ///< blocked kernel: entries read from the private mirror
  kGhostReads,          ///< blocked kernel: entries read through SharedVector
  kMessagesSent,        ///< distsim: puts issued (incl. dropped/duplicated)
  kMessagesReceived,    ///< distsim: puts delivered
  kMessagesDropped,     ///< distsim: puts lost to faults or dead ranks
  kMessagesDuplicated,  ///< distsim: retransmitted copies injected
  kPolicyDraws,         ///< sampled policies: rows drawn from the sampler
  kQueueFullDrops,      ///< mesh: packets refused by a full SPSC ring
  kGhostRefreshes,      ///< sellcs: dense ghost-buffer refreshes performed
  /// solve_shared, actor 0: the process's minor page faults over the call
  /// (getrusage delta), so process-wide: any other thread's faults in
  /// that window count too.
  kMinorFaults,
  kCount
};
inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);

/// Stable snake_case name used in the JSON snapshot.
[[nodiscard]] const char* counter_name(Counter c) noexcept;

/// Per-actor histograms (merged across actors at snapshot time).
enum class Hist : std::size_t {
  kReadStaleness = 0,  ///< versions behind a synchronous schedule per read
  kIterationUs,        ///< wall/sim microseconds per local iteration
  kResidualCheckUs,    ///< microseconds per convergence-norm scan
  kMessageLatencyUs,   ///< distsim: network latency per issued put
  kQueueDepth,         ///< distsim: mailbox depth when the rank drains it
  kGhostReadAge,       ///< distsim: sender-iteration lag of applied ghosts
  kRowRelaxations,     ///< sampled policies: per-row relaxation totals
  kRowSelectionSkew,   ///< sampled policies: per-thread max/mean row count, %
  kCount
};
inline constexpr std::size_t kNumHists = static_cast<std::size_t>(Hist::kCount);

[[nodiscard]] const char* hist_name(Hist h) noexcept;

/// Power-of-two-bucketed histogram of unsigned samples. Single writer;
/// merge() combines per-actor instances into the snapshot aggregate.
class Histogram {
 public:
  /// Bucket k counts samples v with std::bit_width(v) == k: bucket 0 is
  /// exactly {0}, bucket k >= 1 spans [2^(k-1), 2^k). 64-bit samples fill
  /// buckets 0..64.
  static constexpr std::size_t kNumBuckets = 65;

  void record(std::uint64_t v) noexcept {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  void merge(const Histogram& o) noexcept {
    for (std::size_t k = 0; k < kNumBuckets; ++k) buckets_[k] += o.buckets_[k];
    count_ += o.count_;
    sum_ += o.sum_;
    if (o.min_ < min_) min_ = o.min_;
    if (o.max_ > max_) max_ = o.max_;
  }

  [[nodiscard]] static constexpr std::size_t bucket_of(
      std::uint64_t v) noexcept {
    return static_cast<std::size_t>(std::bit_width(v));
  }

  /// Smallest sample landing in bucket k.
  [[nodiscard]] static constexpr std::uint64_t bucket_low(
      std::size_t k) noexcept {
    return k == 0 ? 0 : std::uint64_t{1} << (k - 1);
  }

  /// Largest sample landing in bucket k (inclusive).
  [[nodiscard]] static constexpr std::uint64_t bucket_high(
      std::size_t k) noexcept {
    if (k == 0) return 0;
    if (k >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << k) - 1;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept {
    return count_ > 0 ? min_ : 0;
  }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_)
                      : 0.0;
  }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t k) const noexcept {
    return buckets_[k];
  }

  /// Approximate quantile (0 <= p <= 1): locates the bucket holding the
  /// p-th sample and interpolates linearly within its [low, high] range.
  /// Exact for bucket 0 and for point-mass distributions; elsewhere
  /// accurate to the bucket's factor-of-two resolution.
  [[nodiscard]] std::uint64_t percentile(double p) const noexcept;

 private:
  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

/// What happened on the timeline. Spans carry a duration; the rest are
/// instants. arg0/arg1 meaning per kind is documented at the record site.
enum class TraceKind : std::uint8_t {
  kIteration = 0,   ///< span: one local iteration (arg0 = iteration index)
  kSolve,           ///< span: the whole solve (actor 0)
  kPolish,          ///< span: sequential polish phase (arg0 = sweeps)
  kFlagRaise,       ///< instant: termination flag 0 -> 1 (arg0 = iteration)
  kFlagLower,       ///< instant: termination flag 1 -> 0 (arg0 = iteration)
  kStop,            ///< instant: verified stop / stop broadcast decided
  kCrash,           ///< instant: crash fault fired
  kRecover,         ///< instant: crashed actor resumed
  kStragglerOn,     ///< instant: straggler window entered
  kStaleWindowOn,   ///< instant: stale-read window entered
  kBitFlip,         ///< instant: transient matrix-entry corruption (arg0=row)
  kMessageDrop,     ///< instant: put lost in the network (arg0 = receiver)
  kMessageDuplicate,///< instant: put retransmitted (arg0 = receiver)
  kMessageReorder,  ///< instant: put latency inflated (arg0 = receiver)
  kDetection,       ///< instant: rank 0 detected convergence
};

[[nodiscard]] const char* trace_kind_name(TraceKind k) noexcept;

struct TraceEvent {
  double ts_us = 0.0;
  double dur_us = -1.0;  ///< < 0 means instant
  TraceKind kind = TraceKind::kIteration;
  std::int64_t arg0 = 0;
  std::int64_t arg1 = 0;

  [[nodiscard]] bool is_span() const noexcept { return dur_us >= 0.0; }
};

struct MetricsConfig {
  /// Collect TraceEvents (the counters/histograms are always collected).
  bool timeline = true;
  /// Per-actor timeline cap; extra events increment dropped_events instead
  /// of allocating without bound.
  std::size_t max_events_per_actor = std::size_t{1} << 16;
};

/// One worker's private recording area. alignas keeps the hot counters of
/// adjacent actors on different cache lines. The single-writer contract is
/// a capability: recording requires `owner` held exclusively (the worker's
/// claim), reading it after the join requires it shared.
struct alignas(64) ActorSlot {
  /// Sole-writer role of this slot; worker t claims slot t's at entry.
  SoleWriterRole owner;

  std::array<std::uint64_t, kNumCounters> counters AJAC_SOLE_WRITER(owner) =
      {};
  std::array<Histogram, kNumHists> histograms AJAC_SOLE_WRITER(owner) = {};
  std::vector<TraceEvent> events AJAC_SOLE_WRITER(owner);
  std::uint64_t dropped_events AJAC_SOLE_WRITER(owner) = 0;

  void add(Counter c, std::uint64_t v = 1) noexcept AJAC_REQUIRES(owner) {
    counters[static_cast<std::size_t>(c)] += v;
  }
  void record(Hist h, std::uint64_t v) noexcept AJAC_REQUIRES(owner) {
    histograms[static_cast<std::size_t>(h)].record(v);
  }
  void span(TraceKind kind, double t0_us, double t1_us, std::int64_t arg0 = 0,
            std::int64_t arg1 = 0) AJAC_REQUIRES(owner) {
    push({t0_us, t1_us > t0_us ? t1_us - t0_us : 0.0, kind, arg0, arg1});
  }
  void instant(TraceKind kind, double ts_us, std::int64_t arg0 = 0,
               std::int64_t arg1 = 0) AJAC_REQUIRES(owner) {
    push({ts_us, -1.0, kind, arg0, arg1});
  }

 private:
  friend class MetricsRegistry;
  void push(TraceEvent e) AJAC_REQUIRES(owner) {
    if (!timeline_) return;
    if (events.size() < max_events_) {
      events.push_back(e);
    } else {
      ++dropped_events;
    }
  }

  bool timeline_ = false;
  std::size_t max_events_ = 0;
};

/// Merged view of every actor, taken after the workers have joined.
struct MetricsSnapshot {
  index_t num_actors = 0;
  std::array<std::uint64_t, kNumCounters> totals{};
  std::vector<std::array<std::uint64_t, kNumCounters>> per_actor;
  std::array<Histogram, kNumHists> histograms{};
  std::uint64_t trace_events = 0;
  std::uint64_t dropped_trace_events = 0;
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(MetricsConfig cfg = {}) : cfg_(cfg) {}

  /// Size the registry for `num_actors` workers, clearing previous data.
  /// The runtimes call this on entry with an `events_hint` sized to the
  /// expected event count so the timed region performs no reallocation in
  /// steady state (growth beyond the hint is amortized push_back, capped
  /// at max_events_per_actor).
  void reset(index_t num_actors, std::size_t events_hint = 1024);

  [[nodiscard]] index_t num_actors() const noexcept {
    return static_cast<index_t>(slots_.size());
  }
  [[nodiscard]] ActorSlot& actor(index_t t) { return slots_[static_cast<std::size_t>(t)]; }
  [[nodiscard]] const ActorSlot& actor(index_t t) const {
    return slots_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] const MetricsConfig& config() const noexcept { return cfg_; }

  /// What an actor is called in exported traces ("thread" / "rank"); set
  /// by the runtime that fills the registry.
  void set_actor_kind(std::string kind) { actor_kind_ = std::move(kind); }
  [[nodiscard]] const std::string& actor_kind() const noexcept {
    return actor_kind_;
  }

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  MetricsConfig cfg_;
  std::string actor_kind_ = "thread";
  std::vector<ActorSlot> slots_;
};

/// Serialize a snapshot as schema-versioned JSON. `metadata` carries run
/// identification (git sha, matrix id, thread count, ...) verbatim into
/// the "metadata" object.
[[nodiscard]] std::string to_json(
    const MetricsSnapshot& snap,
    const std::map<std::string, std::string>& metadata = {});

}  // namespace ajac::obs
