#pragma once
// ConvergenceMonitor: the drainer side of the live telemetry pipeline.
//
// Consumes every ring of a TelemetryHub — without perturbing the workers
// publishing into them (the rings' drop-oldest protocol never blocks a
// producer) — and maintains online estimates of the solve's trajectory:
//
//  - global relative residual: the latest own-block beacon of every
//    actor, summed over actors and divided by the run's residual_scale;
//  - residual-decay rate rho-hat via windowed log-linear regression of
//    ln(rel residual) against the cross-actor iteration frontier (the
//    minimum local iteration count over actors: the number of completed
//    "global" sweeps all actors have reached). On the synchronous path
//    the frontier points are exact per-iteration global residuals, so
//    rho-hat converges to the Jacobi spectral radius (tested against
//    eig::spectral_radius_jacobi);
//  - ETA-to-tolerance from the same regression against time;
//  - cross-actor iteration lag / imbalance gauges;
//  - a straggler/stall detector: fixed time windows of width window_us;
//    each actor's relaxation rate in a closed window (from the cumulative
//    counters, sampled as a step function at the window boundary) is
//    compared with the running median over actors, and an actor whose
//    rate stays below straggler_fraction * median for straggler_windows
//    consecutive windows is flagged, latched, with the window-boundary
//    timestamp as the detection time.
//
// What the detector can and cannot see is documented in DESIGN.md §5f;
// the short version: it observes *publication* rate, so it catches slow
// and stalled actors (including crashed ones — their counters freeze) but
// judges nothing once the median itself collapses (e.g. after every
// actor parks at the iteration cap), and its latency is quantized to
// window_us and bounded below by straggler_windows windows.
//
// Thread model: poll_now() may be called from any single thread at a
// time (tests call it directly for determinism; start() runs it on a
// background drainer thread). Workers never interact with the monitor.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "ajac/obs/event_ring.hpp"
#include "ajac/obs/stream.hpp"
#include "ajac/sparse/types.hpp"

namespace ajac::obs {

/// A latched straggler detection.
struct StragglerFlag {
  index_t actor = 0;
  double detected_ts_us = 0.0;  ///< window boundary that confirmed it
  double rate = 0.0;            ///< relaxations/us in the deciding window
  double median_rate = 0.0;     ///< running median it was judged against
};

/// Snapshot of the monitor's online estimates.
struct MonitorEstimates {
  std::uint64_t run_generation = 0;
  double ts_us = 0.0;          ///< timestamp of the newest beacon seen
  std::uint64_t beacons = 0;   ///< beacons consumed this run
  std::uint64_t dropped = 0;   ///< beacons lost to ring overwrites
  index_t actors_reporting = 0;
  /// Global relative residual estimate; negative until every actor has
  /// reported at least once.
  double global_rel_residual = -1.0;
  /// Per-iteration residual decay factor exp(d ln r / d iter); 0 until
  /// the regression window has at least two frontier points.
  double rho_hat = 0.0;
  /// Estimated microseconds until the run tolerance is met; negative
  /// when unknown (no tolerance, not decaying, or already met).
  double eta_us = -1.0;
  std::int64_t iteration_min = 0;  ///< slowest actor's local iteration
  std::int64_t iteration_max = 0;  ///< fastest actor's local iteration
  /// (max - min) / max(1, max): 0 = lockstep, -> 1 = one actor stalled.
  double iteration_imbalance = 0.0;
  std::vector<StragglerFlag> stragglers;  ///< latched, detection order
};

class ConvergenceMonitor {
 public:
  struct Options {
    /// Straggler-detector window width (beacon-time us: wall us for the
    /// shared runtime, simulated us for distsim).
    double window_us = 1000.0;
    /// Flag when rate < straggler_fraction * median(rates).
    double straggler_fraction = 0.25;
    /// ... for this many consecutive closed windows.
    int straggler_windows = 3;
    /// Frontier points kept for the rho-hat / ETA regression.
    int regression_window = 64;
    /// Drainer thread poll cadence (start()/stop() mode only).
    double poll_interval_ms = 10.0;
  };

  explicit ConvergenceMonitor(TelemetryHub& hub)
      : ConvergenceMonitor(hub, Options()) {}
  ConvergenceMonitor(TelemetryHub& hub, Options opts);
  ~ConvergenceMonitor();

  ConvergenceMonitor(const ConvergenceMonitor&) = delete;
  ConvergenceMonitor& operator=(const ConvergenceMonitor&) = delete;

  /// Register a sink (not owned). Add sinks before start() or between
  /// poll_now() calls; never concurrently with a running drainer.
  void add_sink(StreamSink* sink);

  /// Drain every ring and update the estimates synchronously. The result
  /// is a pure function of the beacon stream consumed so far (no clocks,
  /// no scheduling dependence), which is what the deterministic tests and
  /// the post-run flush rely on. Beacons beyond the cross-actor drain
  /// watermark are buffered and processed by a later poll (or flush()),
  /// so one poll may not consume everything it drained.
  void poll_now();

  /// Poll repeatedly until a pass makes no progress: with no concurrent
  /// publishers this consumes every published beacon, including the
  /// watermark-buffered tail. Call after the solve (stop() does).
  void flush();

  /// Start/stop the background drainer thread. stop() joins and runs one
  /// final poll_now() so trailing beacons are never lost.
  void start();
  void stop();

  [[nodiscard]] MonitorEstimates estimates() const;

 private:
  struct ActorState {
    EventRing::Cursor cursor;  // survives run changes (rings never reset)
    // cursor.dropped at the start of the current run, so per-run drop
    // counts stay accurate when a hub is reused across runs.
    std::uint64_t dropped_base = 0;
    // Drained but not yet processed: beacons past the drain watermark
    // wait here (FIFO) until the watermark passes them.
    std::deque<Beacon> pending;
    bool reported = false;
    Beacon latest;
    // Straggler accounting: cumulative relaxations at the last closed
    // window boundary, and the below-threshold streak length.
    std::uint64_t window_start_relaxations = 0;
    int slow_streak = 0;
    bool flagged = false;
  };

  bool drain_locked();  // returns whether any beacon was processed
  void process_beacon(index_t actor, const Beacon& b);
  void close_windows_up_to(double ts_us);
  void update_frontier(double ts_us);
  void update_regression();

  TelemetryHub* hub_;
  Options opts_;

  mutable std::mutex mu_;
  std::vector<StreamSink*> sinks_;
  TelemetryRunInfo run_;
  std::vector<ActorState> actors_;
  MonitorEstimates est_;
  // Straggler windows: index of the next window boundary to close and
  // whether judging has started (all actors reported before the window
  // opened — start-up skew must not read as a stall).
  std::int64_t next_window_ = 1;
  bool windows_armed_ = false;
  bool skip_first_window_ = false;  // partial window right after arming
  // Drain watermark: beacons are processed (and windows closed) only up
  // to the minimum over actors of their confirmed-complete beacon time —
  // the newest beacon drained from an actor's ring this pass, or, when
  // the ring was empty, the previous pass's global maximum (ring
  // emptiness at drain time proves silence up to every timestamp already
  // seen). Without this, rings drained moments apart make a healthy
  // actor look stalled for the skew interval. A truly silent actor does
  // not pin the watermark: its fallback keeps advancing with everyone
  // else's beacons, which is what lets stalls be detected at all.
  double watermark_ = 0.0;
  double global_max_ts_ = 0.0;  // max beacon ts through the previous drain
  // rho-hat frontier: last frontier iteration appended and the retained
  // regression points (iteration, ts_us, ln rel residual).
  std::int64_t frontier_iter_ = 0;
  struct FrontierPoint {
    double iter;
    double ts_us;
    double ln_rel;
  };
  std::deque<FrontierPoint> points_;

  std::unique_ptr<std::thread> drainer_;
  std::atomic<bool> stop_{false};
};

}  // namespace ajac::obs
