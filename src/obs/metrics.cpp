#include "ajac/obs/metrics.hpp"

#include <algorithm>

#include "ajac/obs/json.hpp"
#include "ajac/util/check.hpp"

namespace ajac::obs {

const char* counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kRelaxations: return "relaxations";
    case Counter::kIterations: return "iterations";
    case Counter::kSeqlockRetries: return "seqlock_retries";
    case Counter::kFlagRaises: return "flag_raises";
    case Counter::kSpinWaitNs: return "spin_wait_ns";
    case Counter::kResidualCheckNs: return "residual_check_ns";
    case Counter::kPolishSweeps: return "polish_sweeps";
    case Counter::kFaultEvents: return "fault_events";
    case Counter::kLocalReads: return "local_reads";
    case Counter::kGhostReads: return "ghost_reads";
    case Counter::kMessagesSent: return "messages_sent";
    case Counter::kMessagesReceived: return "messages_received";
    case Counter::kMessagesDropped: return "messages_dropped";
    case Counter::kMessagesDuplicated: return "messages_duplicated";
    case Counter::kPolicyDraws: return "policy_draws";
    case Counter::kQueueFullDrops: return "queue_full_drops";
    case Counter::kGhostRefreshes: return "ghost_refreshes";
    case Counter::kMinorFaults: return "minor_faults";
    case Counter::kCount: break;
  }
  return "unknown";
}

const char* hist_name(Hist h) noexcept {
  switch (h) {
    case Hist::kReadStaleness: return "read_staleness";
    case Hist::kIterationUs: return "iteration_us";
    case Hist::kResidualCheckUs: return "residual_check_us";
    case Hist::kMessageLatencyUs: return "message_latency_us";
    case Hist::kQueueDepth: return "queue_depth";
    case Hist::kGhostReadAge: return "ghost_read_age";
    case Hist::kRowRelaxations: return "row_relaxations";
    case Hist::kRowSelectionSkew: return "row_selection_skew";
    case Hist::kCount: break;
  }
  return "unknown";
}

const char* trace_kind_name(TraceKind k) noexcept {
  switch (k) {
    case TraceKind::kIteration: return "iteration";
    case TraceKind::kSolve: return "solve";
    case TraceKind::kPolish: return "polish";
    case TraceKind::kFlagRaise: return "flag_raise";
    case TraceKind::kFlagLower: return "flag_lower";
    case TraceKind::kStop: return "stop";
    case TraceKind::kCrash: return "crash";
    case TraceKind::kRecover: return "recover";
    case TraceKind::kStragglerOn: return "straggler_on";
    case TraceKind::kStaleWindowOn: return "stale_window_on";
    case TraceKind::kBitFlip: return "bit_flip";
    case TraceKind::kMessageDrop: return "message_drop";
    case TraceKind::kMessageDuplicate: return "message_duplicate";
    case TraceKind::kMessageReorder: return "message_reorder";
    case TraceKind::kDetection: return "detection";
  }
  return "unknown";
}

std::uint64_t Histogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  // Rank of the requested sample, 1-based. The extreme ranks short-circuit
  // so p=0 / p=1 return min / max exactly.
  const auto rank = static_cast<std::uint64_t>(
      p * static_cast<double>(count_ - 1)) + 1;
  if (rank <= 1) return min();
  if (rank >= count_) return max_;
  std::uint64_t seen = 0;
  for (std::size_t k = 0; k < kNumBuckets; ++k) {
    if (buckets_[k] == 0) continue;
    if (seen + buckets_[k] >= rank) {
      // Interpolate by position within the bucket (first sample -> low end,
      // last sample -> high end), clamped to the observed extremes.
      const double within =
          buckets_[k] > 1 ? static_cast<double>(rank - seen - 1) /
                                static_cast<double>(buckets_[k] - 1)
                          : 0.0;
      const double lo = static_cast<double>(std::max(bucket_low(k), min()));
      const double hi = static_cast<double>(std::min(bucket_high(k), max_));
      const double v = lo + within * (hi - lo);
      // double(max_) rounds up for values near 2^64; casting that back
      // would overflow, so clamp in floating point first.
      if (v >= static_cast<double>(max_)) return max_;
      return static_cast<std::uint64_t>(v);
    }
    seen += buckets_[k];
  }
  return max_;
}

void MetricsRegistry::reset(index_t num_actors, std::size_t events_hint) {
  AJAC_CHECK(num_actors >= 1);
  slots_.assign(static_cast<std::size_t>(num_actors), ActorSlot{});
  const std::size_t reserve =
      std::min(std::max<std::size_t>(events_hint, 64),
               cfg_.max_events_per_actor);
  for (ActorSlot& s : slots_) {
    // Single-threaded setup phase: no worker has started, so this thread
    // momentarily holds every slot's sole-writer role.
    s.owner.assert_held();
    s.timeline_ = cfg_.timeline;
    s.max_events_ = cfg_.timeline ? cfg_.max_events_per_actor : 0;
    if (cfg_.timeline) s.events.reserve(reserve);
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.num_actors = num_actors();
  snap.per_actor.reserve(slots_.size());
  for (const ActorSlot& s : slots_) {
    // Post-join aggregation: the workers are gone, reading is safe.
    s.owner.assert_shared();
    snap.per_actor.push_back(s.counters);
    for (std::size_t c = 0; c < kNumCounters; ++c) {
      snap.totals[c] += s.counters[c];
    }
    for (std::size_t h = 0; h < kNumHists; ++h) {
      snap.histograms[h].merge(s.histograms[h]);
    }
    snap.trace_events += s.events.size();
    snap.dropped_trace_events += s.dropped_events;
  }
  return snap;
}

std::string to_json(const MetricsSnapshot& snap,
                    const std::map<std::string, std::string>& metadata) {
  JsonWriter w;
  w.begin_object();
  w.key("schema_version").value(std::int64_t{kMetricsSchemaVersion});
  w.key("kind").value("ajac-metrics-snapshot");
  w.key("metadata").begin_object();
  for (const auto& [k, v] : metadata) w.key(k).value(v);
  w.end_object();
  w.key("num_actors").value(static_cast<std::int64_t>(snap.num_actors));

  w.key("counters").begin_object();
  for (std::size_t c = 0; c < kNumCounters; ++c) {
    w.key(counter_name(static_cast<Counter>(c))).begin_object();
    w.key("total").value(snap.totals[c]);
    w.key("per_actor").begin_array();
    for (const auto& actor : snap.per_actor) w.value(actor[c]);
    w.end_array();
    w.end_object();
  }
  w.end_object();

  w.key("histograms").begin_object();
  for (std::size_t h = 0; h < kNumHists; ++h) {
    const Histogram& hist = snap.histograms[h];
    w.key(hist_name(static_cast<Hist>(h))).begin_object();
    w.key("count").value(hist.count());
    w.key("sum").value(hist.sum());
    w.key("min").value(hist.min());
    w.key("max").value(hist.max());
    w.key("mean").value(hist.mean());
    w.key("p50").value(hist.percentile(0.50));
    w.key("p90").value(hist.percentile(0.90));
    w.key("p99").value(hist.percentile(0.99));
    // Sparse bucket list: [bucket_low, bucket_high, count] per non-empty
    // bucket, lowest first.
    w.key("buckets").begin_array();
    for (std::size_t k = 0; k < Histogram::kNumBuckets; ++k) {
      if (hist.bucket_count(k) == 0) continue;
      w.begin_array();
      w.value(Histogram::bucket_low(k));
      w.value(Histogram::bucket_high(k));
      w.value(hist.bucket_count(k));
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();

  w.key("trace_events").value(snap.trace_events);
  w.key("dropped_trace_events").value(snap.dropped_trace_events);
  w.end_object();
  return w.str();
}

}  // namespace ajac::obs
