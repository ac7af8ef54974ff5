#pragma once
// Live telemetry hub and streaming sinks.
//
// TelemetryHub owns one EventRing per potential actor and the per-run
// metadata the ConvergenceMonitor needs to interpret beacons (residual
// scale, tolerance, time base). Solvers accept a hub pointer the same way
// they accept a MetricsRegistry: `SharedOptions::stream` / ``DistOptions::
// stream`` default to nullptr, and on the null path every publish hook
// returns at once (bitwise-identical results; see solve_hooks.hpp).
//
// Concurrency contract:
//  - Rings are allocated once, at hub construction, and never reallocated
//    or reset — a monitor may poll them while a solve publishes.
//  - Workers touch only their own ring (EventRing's sole-writer protocol);
//    they never take the hub mutex.
//  - Run metadata is guarded by a mutex taken only by single-threaded
//    phases (begin_run / set_residual_scale before the fork) and by
//    monitor/test readers.
//  - begin_run() does not clear rings (resetting the seqlock sequence
//    under a live reader would break the protocol). When reusing one hub
//    across solves with a monitor attached, drain (poll_now) between runs
//    so old beacons are not attributed to the new run.

#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "ajac/obs/event_ring.hpp"
#include "ajac/sparse/types.hpp"

namespace ajac::obs {

struct TelemetryOptions {
  /// Publish a beacon every `beacon_stride`-th local iteration (plus one
  /// final beacon at loop exit). 1 = every iteration.
  index_t beacon_stride = 8;
  /// Per-actor ring capacity (rounded up to a power of two).
  std::size_t ring_capacity = 256;
  /// Rings allocated at construction; begin_run() checks against this.
  index_t max_actors = 64;
};

/// Per-run metadata, set by the solver before its workers fork.
struct TelemetryRunInfo {
  std::uint64_t generation = 0;  ///< bumped by every begin_run()
  index_t num_actors = 0;
  std::string actor_kind;      ///< "thread" | "rank"
  /// Initial residual norm: beacons carry absolute own-block 1-norms over
  /// a row partition, so the global relative residual is their sum over
  /// actors divided by this.
  double residual_scale = 1.0;
  double tolerance = 0.0;      ///< solver's relative tolerance (0 = none)
  bool sim_time = false;       ///< beacons carry simulated us, not wall us
};

class TelemetryHub {
 public:
  explicit TelemetryHub(TelemetryOptions opts = {});

  [[nodiscard]] const TelemetryOptions& options() const noexcept {
    return opts_;
  }

  /// Actor `a`'s ring. Stable for the hub's lifetime.
  [[nodiscard]] EventRing& ring(index_t actor);
  [[nodiscard]] const EventRing& ring(index_t actor) const;

  /// Start a run: bump the generation and record its metadata. Called by
  /// the solver entry point, single-threaded, before any beacon of the
  /// run is published. num_actors must not exceed options().max_actors.
  void begin_run(index_t num_actors, std::string_view actor_kind,
                 double tolerance, bool sim_time);

  /// Record the run's initial residual norm (the residual_scale).
  /// Single-threaded setup, after begin_run and before the fork.
  void set_residual_scale(double scale);

  [[nodiscard]] TelemetryRunInfo run_info() const;

 private:
  TelemetryOptions opts_;
  std::deque<EventRing> rings_;  // deque: EventRing is not movable
  mutable std::mutex mu_;
  TelemetryRunInfo run_;
};

// ---------------------------------------------------------------------------
// Streaming sinks
// ---------------------------------------------------------------------------

struct MonitorEstimates;  // ajac/obs/monitor.hpp

/// Consumer interface the ConvergenceMonitor forwards into. Callbacks run
/// on the monitor's drainer thread (or the poll_now() caller), never on a
/// solver worker.
class StreamSink {
 public:
  virtual ~StreamSink() = default;
  /// One beacon, in merged (cross-actor) timestamp order.
  virtual void on_beacon(index_t actor, const Beacon& b) = 0;
  /// Updated global estimates, once per drain pass that saw new beacons.
  virtual void on_estimates(const MonitorEstimates& e) = 0;
};

/// Newline-delimited JSON sink: one `{"type":"beacon",...}` object per
/// beacon and one `{"type":"estimate",...}` object per estimate update.
/// This is the stream `tools/ajac_top.py` tails. The caller owns the
/// ostream and its flushing policy (each record ends with '\n';
/// `flush_every_record` trades throughput for tail latency).
class NdjsonSink : public StreamSink {
 public:
  struct Options {
    bool flush_every_record = true;
    /// Zero every timestamp field: makes streams from deterministic
    /// (synchronous, fixed-iteration) runs byte-stable for golden tests.
    bool zero_timestamps = false;
  };

  explicit NdjsonSink(std::ostream& out) : NdjsonSink(out, Options()) {}
  NdjsonSink(std::ostream& out, Options opts) : out_(&out), opts_(opts) {}

  void on_beacon(index_t actor, const Beacon& b) override;
  void on_estimates(const MonitorEstimates& e) override;

 private:
  std::ostream* out_;
  Options opts_;
};

class TraceEventSink;  // ajac/obs/trace_sink.hpp

/// Forwards monitor estimates into Perfetto counter tracks on a
/// TraceEventSink, so the live series (global residual, rho-hat,
/// iteration lag, drop count) render alongside the existing span
/// timeline. Beacons additionally feed per-actor iteration counters.
class TraceCounterSink : public StreamSink {
 public:
  explicit TraceCounterSink(TraceEventSink& sink) : sink_(&sink) {}

  void on_beacon(index_t actor, const Beacon& b) override;
  void on_estimates(const MonitorEstimates& e) override;

 private:
  TraceEventSink* sink_;
};

}  // namespace ajac::obs
