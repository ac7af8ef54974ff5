// ConvergenceMonitor on synthetic beacon streams: detection latency of the
// straggler detector, its clean-run specificity, exactness of the rho-hat /
// ETA regression on geometric decay, the cross-actor drain watermark, and
// the NDJSON stream contract. Everything here is deterministic — beacons
// are published directly into the hub's rings with hand-picked timestamps
// and the monitor is driven by poll_now()/flush(), never a drainer thread.

#include "ajac/obs/monitor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "ajac/obs/json.hpp"
#include "ajac/obs/stream.hpp"

namespace ajac::obs {
namespace {

void publish(TelemetryHub& hub, index_t actor, double ts_us,
             std::int64_t iteration, std::uint64_t relaxations,
             double own_residual = 1.0) {
  Beacon b;
  b.ts_us = ts_us;
  b.iteration = iteration;
  b.relaxations = relaxations;
  b.own_residual_1 = own_residual;
  EventRing& ring = hub.ring(actor);
  ring.writer.assert_held();
  ring.publish(b);
}

ConvergenceMonitor::Options fast_windows() {
  ConvergenceMonitor::Options o;
  o.window_us = 100.0;
  o.straggler_fraction = 0.25;
  o.straggler_windows = 3;
  return o;
}

TEST(TelemetryMonitor, StragglerDetectionLatencyIsBounded) {
  TelemetryOptions topts;
  topts.max_actors = 4;
  TelemetryHub hub(topts);
  hub.begin_run(4, "thread", 0.0, false);
  ConvergenceMonitor monitor(hub, fast_windows());

  // All four actors relax at 10 relaxations/us, one beacon every 10 us.
  // Actor 3 goes silent after ts = 500 (a crash or stall: its counters
  // freeze because nothing more is published). The detector should flag
  // it after straggler_windows = 3 judged windows of zero rate, i.e. at
  // the boundary 500 + 3 * 100 = 800, and never sooner.
  constexpr double kStallTs = 500.0;
  for (double ts = 10.0; ts <= 2000.0; ts += 10.0) {
    for (index_t a = 0; a < 4; ++a) {
      if (a == 3 && ts > kStallTs) continue;
      publish(hub, a, ts, static_cast<std::int64_t>(ts / 10.0),
              static_cast<std::uint64_t>(10.0 * ts));
    }
  }
  monitor.flush();

  const MonitorEstimates est = monitor.estimates();
  ASSERT_EQ(est.stragglers.size(), 1u);
  const StragglerFlag& flag = est.stragglers[0];
  EXPECT_EQ(flag.actor, 3);
  // Exact (the stream is deterministic): stall completes the [500, 600]
  // window empty, and windows ending 600, 700, 800 make the streak.
  EXPECT_EQ(flag.detected_ts_us, 800.0);
  // The general latency contract from the ISSUE: detection no earlier
  // than straggler_windows full windows after the stall, and no later
  // than (straggler_windows + 1) windows (the +1 is the quantization of
  // the stall instant to the next boundary).
  EXPECT_GE(flag.detected_ts_us, kStallTs + 3 * 100.0);
  EXPECT_LE(flag.detected_ts_us, kStallTs + 4 * 100.0);
  EXPECT_EQ(flag.rate, 0.0);
  EXPECT_NEAR(flag.median_rate, 10.0, 1e-12);
  // Latched once, not re-flagged every subsequent window.
  EXPECT_EQ(monitor.estimates().stragglers.size(), 1u);
}

TEST(TelemetryMonitor, NeverFlagsCleanRunWithRateJitter) {
  TelemetryOptions topts;
  topts.max_actors = 4;
  topts.ring_capacity = 512;  // whole per-actor stream fits: zero drops
  TelemetryHub hub(topts);
  hub.begin_run(4, "thread", 0.0, false);
  ConvergenceMonitor monitor(hub, fast_windows());

  // Heterogeneous but healthy: actor a publishes every (10 + a) us at 100
  // relaxations per beacon, so rates span 10.0 down to ~7.7 relax/us —
  // well above straggler_fraction (0.25) of the median. Every stream ends
  // with a final beacon at the common end time (as the solvers emit at
  // loop exit) so no actor's stream merely *ends* earlier than the rest.
  // poll_now() between the streams exercises incremental drains.
  constexpr double kEndTs = 2600.0;
  std::uint64_t published = 0;
  for (index_t a = 0; a < 4; ++a) {
    const double stride = 10.0 + static_cast<double>(a);
    int k = 1;
    for (; stride * k < kEndTs; ++k) {
      publish(hub, a, stride * k, k,
              static_cast<std::uint64_t>(100) * static_cast<std::uint64_t>(k));
      ++published;
    }
    publish(hub, a, kEndTs, k,
            static_cast<std::uint64_t>(100) * static_cast<std::uint64_t>(k));
    ++published;
    monitor.poll_now();
  }
  monitor.flush();

  const MonitorEstimates est = monitor.estimates();
  EXPECT_TRUE(est.stragglers.empty());
  EXPECT_EQ(est.beacons, published);
  EXPECT_EQ(est.dropped, 0u);
  EXPECT_EQ(est.actors_reporting, 4);
}

TEST(TelemetryMonitor, RhoHatAndEtaAreExactOnGeometricDecay) {
  constexpr double kRho = 0.9;
  constexpr double kScale = 4.0;
  constexpr double kTol = 1e-6;
  constexpr int kIters = 50;

  TelemetryOptions topts;
  topts.max_actors = 2;
  TelemetryHub hub(topts);
  hub.begin_run(2, "thread", kTol, false);
  hub.set_residual_scale(kScale);
  ConvergenceMonitor monitor(hub);

  // Lockstep synchronous run: both actors at iteration i at ts = 10 * i,
  // each holding half of a global residual kScale * kRho^i, so the
  // monitor's composed relative residual is exactly kRho^i and the
  // frontier points are exactly log-linear.
  for (int i = 1; i <= kIters; ++i) {
    const double r_half = 0.5 * kScale * std::pow(kRho, i);
    publish(hub, 0, 10.0 * i, i, static_cast<std::uint64_t>(i) * 100,
            r_half);
    publish(hub, 1, 10.0 * i, i, static_cast<std::uint64_t>(i) * 100,
            r_half);
  }
  monitor.flush();

  const MonitorEstimates est = monitor.estimates();
  EXPECT_NEAR(est.rho_hat, kRho, 1e-9);
  EXPECT_NEAR(est.global_rel_residual, std::pow(kRho, kIters),
              1e-12 * std::pow(kRho, kIters));
  EXPECT_EQ(est.iteration_min, kIters);
  EXPECT_EQ(est.iteration_max, kIters);
  EXPECT_EQ(est.iteration_imbalance, 0.0);

  // ETA from the time regression: slope is ln(kRho) per 10 us, remaining
  // decay is ln(kTol) - kIters * ln(kRho).
  const double slope_ts = std::log(kRho) / 10.0;
  const double expected_eta =
      (std::log(kTol) - kIters * std::log(kRho)) / slope_ts;
  ASSERT_GT(est.eta_us, 0.0);
  EXPECT_NEAR(est.eta_us, expected_eta, 1e-6 * expected_eta);
}

TEST(TelemetryMonitor, DrainSkewDoesNotFlagHealthyActor) {
  TelemetryOptions topts;
  topts.max_actors = 2;
  TelemetryHub hub(topts);
  hub.begin_run(2, "thread", 0.0, false);
  ConvergenceMonitor monitor(hub, fast_windows());

  // Both actors run at the same healthy rate, but the monitor drains
  // actor 1's ring 750 us of beacon time behind actor 0's (the realistic
  // shape: one poll lands between the two rings' publication batches).
  // The watermark must hold window judgement at actor 1's confirmed
  // time, so the skew never reads as a stall.
  for (double ts = 50.0; ts <= 1000.0; ts += 50.0) {
    publish(hub, 0, ts, static_cast<std::int64_t>(ts / 50.0),
            static_cast<std::uint64_t>(10.0 * ts));
  }
  for (double ts = 50.0; ts <= 250.0; ts += 50.0) {
    publish(hub, 1, ts, static_cast<std::int64_t>(ts / 50.0),
            static_cast<std::uint64_t>(10.0 * ts));
  }
  monitor.poll_now();

  MonitorEstimates est = monitor.estimates();
  EXPECT_TRUE(est.stragglers.empty());
  // Only beacons up to the watermark (actor 1's confirmed ts = 250) are
  // processed; actor 0's tail waits in the pending queue.
  EXPECT_EQ(est.ts_us, 250.0);
  EXPECT_EQ(est.beacons, 10u);

  // Actor 1 catches up; the next polls release the buffered tail and
  // still judge every window as healthy.
  for (double ts = 300.0; ts <= 1000.0; ts += 50.0) {
    publish(hub, 1, ts, static_cast<std::int64_t>(ts / 50.0),
            static_cast<std::uint64_t>(10.0 * ts));
  }
  monitor.flush();

  est = monitor.estimates();
  EXPECT_TRUE(est.stragglers.empty());
  EXPECT_EQ(est.ts_us, 1000.0);
  EXPECT_EQ(est.beacons, 40u);
  EXPECT_EQ(est.dropped, 0u);
}

TEST(TelemetryMonitor, BeginRunResetsEstimatesButKeepsCursors) {
  TelemetryOptions topts;
  topts.max_actors = 1;
  TelemetryHub hub(topts);
  ConvergenceMonitor monitor(hub);

  hub.begin_run(1, "thread", 0.0, false);
  for (int i = 1; i <= 7; ++i) {
    publish(hub, 0, 10.0 * i, i, static_cast<std::uint64_t>(i));
  }
  monitor.flush();
  EXPECT_EQ(monitor.estimates().beacons, 7u);
  EXPECT_EQ(monitor.estimates().run_generation, 1u);

  // Second run on the same hub: per-run estimates reset, and the ring
  // cursor carries over so none of the new beacons are misattributed or
  // double-counted.
  hub.begin_run(1, "thread", 0.0, false);
  for (int i = 1; i <= 3; ++i) {
    publish(hub, 0, 5.0 * i, i, static_cast<std::uint64_t>(i));
  }
  monitor.flush();
  const MonitorEstimates est = monitor.estimates();
  EXPECT_EQ(est.run_generation, 2u);
  EXPECT_EQ(est.beacons, 3u);
  EXPECT_EQ(est.dropped, 0u);
  EXPECT_EQ(est.ts_us, 15.0);
  EXPECT_TRUE(est.stragglers.empty());
}

TEST(TelemetryMonitor, RingOverwritesAreCountedAsDropped) {
  TelemetryOptions topts;
  topts.max_actors = 1;
  topts.ring_capacity = 4;
  TelemetryHub hub(topts);
  hub.begin_run(1, "thread", 0.0, false);
  ConvergenceMonitor monitor(hub);

  // 20 beacons into a 4-slot ring with no draining monitor: the oldest
  // 16 are overwritten. The cumulative counters make the survivors a
  // complete summary; the monitor must still account for the loss.
  for (int i = 1; i <= 20; ++i) {
    publish(hub, 0, 10.0 * i, i, static_cast<std::uint64_t>(i) * 100);
  }
  monitor.flush();

  const MonitorEstimates est = monitor.estimates();
  EXPECT_EQ(est.beacons, 4u);
  EXPECT_EQ(est.dropped, 16u);
  EXPECT_EQ(est.ts_us, 200.0);
  EXPECT_EQ(est.iteration_max, 20);
}

// ---------------------------------------------------------------------------
// NDJSON sink
// ---------------------------------------------------------------------------

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(TelemetryNdjson, EveryLineIsAParseableRecord) {
  TelemetryOptions topts;
  topts.max_actors = 2;
  TelemetryHub hub(topts);
  hub.begin_run(2, "thread", 1e-8, false);
  hub.set_residual_scale(2.0);
  ConvergenceMonitor monitor(hub);
  std::ostringstream out;
  NdjsonSink sink(out);
  monitor.add_sink(&sink);

  for (int i = 1; i <= 4; ++i) {
    publish(hub, 0, 10.0 * i, i, static_cast<std::uint64_t>(i) * 64, 0.5);
    publish(hub, 1, 10.0 * i, i, static_cast<std::uint64_t>(i) * 64, 0.5);
  }
  monitor.flush();

  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_FALSE(lines.empty());
  std::size_t beacon_lines = 0;
  std::size_t estimate_lines = 0;
  for (const std::string& line : lines) {
    const JsonValue doc = parse_json(line);
    ASSERT_TRUE(doc.is_object()) << line;
    const JsonValue* type = doc.find("type");
    ASSERT_NE(type, nullptr) << line;
    if (type->string == "beacon") {
      ++beacon_lines;
      const double actor = doc.find("actor")->number;
      EXPECT_TRUE(actor == 0.0 || actor == 1.0);
      EXPECT_GT(doc.find("ts_us")->number, 0.0);
      EXPECT_GE(doc.find("iteration")->number, 1.0);
      EXPECT_EQ(doc.find("relaxations")->number,
                doc.find("iteration")->number * 64.0);
      EXPECT_EQ(doc.find("own_residual_1")->number, 0.5);
    } else {
      ASSERT_EQ(type->string, "estimate") << line;
      ++estimate_lines;
      EXPECT_NE(doc.find("global_rel_residual"), nullptr);
      EXPECT_NE(doc.find("rho_hat"), nullptr);
      EXPECT_NE(doc.find("stragglers"), nullptr);
    }
  }
  EXPECT_EQ(beacon_lines, 8u);
  ASSERT_GE(estimate_lines, 1u);

  // The last estimate record reflects the fully drained run: a composed
  // relative residual of (0.5 + 0.5) / 2.0 and all beacons accounted.
  const JsonValue last = parse_json(lines.back());
  EXPECT_EQ(last.find("type")->string, "estimate");
  EXPECT_EQ(last.find("beacons")->number, 8.0);
  EXPECT_EQ(last.find("dropped")->number, 0.0);
  EXPECT_EQ(last.find("actors_reporting")->number, 2.0);
  EXPECT_EQ(last.find("global_rel_residual")->number, 0.5);
}

TEST(TelemetryNdjson, ZeroTimestampsMakesStreamsByteStable) {
  TelemetryOptions topts;
  topts.max_actors = 1;
  TelemetryHub hub(topts);
  ConvergenceMonitor monitor(hub);
  std::ostringstream out;
  NdjsonSink::Options sopts;
  sopts.zero_timestamps = true;
  NdjsonSink sink(out, sopts);
  monitor.add_sink(&sink);

  // Two "runs" with different wall-clock timestamps but identical logical
  // content must serialize identically.
  std::string first;
  for (int run = 0; run < 2; ++run) {
    out.str("");
    hub.begin_run(1, "thread", 1e-8, false);
    const double ts_base = run == 0 ? 10.0 : 977.0;
    for (int i = 1; i <= 3; ++i) {
      publish(hub, 0, ts_base * i, i, static_cast<std::uint64_t>(i) * 8,
              1.0 / i);
    }
    monitor.flush();
    if (run == 0) {
      first = out.str();
    } else {
      EXPECT_EQ(out.str(), first);
    }
  }
  for (const std::string& line : lines_of(first)) {
    const JsonValue doc = parse_json(line);
    EXPECT_EQ(doc.find("ts_us")->number, 0.0) << line;
  }
}

}  // namespace
}  // namespace ajac::obs
