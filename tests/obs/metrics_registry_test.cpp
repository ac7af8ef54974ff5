#include "ajac/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "ajac/obs/json.hpp"

namespace ajac::obs {
namespace {

TEST(ObsRegistry, ResetSizesAndClears) {
  MetricsRegistry reg;
  reg.reset(3);
  reg.actor(0).add(Counter::kRelaxations, 10);
  reg.actor(2).record(Hist::kReadStaleness, 4);
  reg.reset(2);
  EXPECT_EQ(reg.num_actors(), 2);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.totals[static_cast<std::size_t>(Counter::kRelaxations)], 0u);
  EXPECT_EQ(
      snap.histograms[static_cast<std::size_t>(Hist::kReadStaleness)].count(),
      0u);
}

TEST(ObsRegistry, SnapshotMergesPerActorTotals) {
  MetricsRegistry reg;
  reg.reset(4);
  for (index_t t = 0; t < 4; ++t) {
    reg.actor(t).add(Counter::kIterations, static_cast<std::uint64_t>(t + 1));
  }
  const MetricsSnapshot snap = reg.snapshot();
  const auto c = static_cast<std::size_t>(Counter::kIterations);
  EXPECT_EQ(snap.totals[c], 1u + 2u + 3u + 4u);
  ASSERT_EQ(snap.per_actor.size(), 4u);
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(snap.per_actor[t][c], t + 1);
  }
}

TEST(ObsRegistry, ConcurrentRecordMergesToSerialSum) {
  // Each worker writes only its own slot, so concurrent recording followed
  // by a post-join snapshot must equal the serial sum exactly. Run under
  // the tsan preset this also proves the single-writer contract is
  // race-free (suite name matches the preset's ^Obs filter).
  constexpr index_t kThreads = 4;
  constexpr std::uint64_t kOpsPerThread = 20000;
  MetricsRegistry reg;
  reg.reset(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (index_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, t] {
      ActorSlot& slot = reg.actor(t);
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        slot.add(Counter::kRelaxations);
        slot.add(Counter::kSeqlockRetries, 2);
        slot.record(Hist::kReadStaleness, i % 9);
        slot.record(Hist::kIterationUs, (i % 5) + 1);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const MetricsSnapshot snap = reg.snapshot();
  const auto relax = static_cast<std::size_t>(Counter::kRelaxations);
  const auto retries = static_cast<std::size_t>(Counter::kSeqlockRetries);
  EXPECT_EQ(snap.totals[relax], kThreads * kOpsPerThread);
  EXPECT_EQ(snap.totals[retries], kThreads * kOpsPerThread * 2);
  for (const auto& actor : snap.per_actor) {
    EXPECT_EQ(actor[relax], kOpsPerThread);
  }

  // Serial reference for the histograms.
  Histogram stale_ref;
  Histogram iter_ref;
  for (index_t t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
      stale_ref.record(i % 9);
      iter_ref.record((i % 5) + 1);
    }
  }
  const Histogram& stale =
      snap.histograms[static_cast<std::size_t>(Hist::kReadStaleness)];
  const Histogram& iter =
      snap.histograms[static_cast<std::size_t>(Hist::kIterationUs)];
  EXPECT_EQ(stale.count(), stale_ref.count());
  EXPECT_EQ(stale.sum(), stale_ref.sum());
  EXPECT_EQ(iter.sum(), iter_ref.sum());
  for (std::size_t k = 0; k < Histogram::kNumBuckets; ++k) {
    EXPECT_EQ(stale.bucket_count(k), stale_ref.bucket_count(k)) << "k=" << k;
  }
}

TEST(ObsRegistry, TimelineCapCountsDroppedEvents) {
  MetricsConfig cfg;
  cfg.max_events_per_actor = 8;
  MetricsRegistry reg(cfg);
  reg.reset(1);
  for (int i = 0; i < 20; ++i) {
    reg.actor(0).instant(TraceKind::kFlagRaise, static_cast<double>(i));
  }
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.trace_events, 8u);
  EXPECT_EQ(snap.dropped_trace_events, 12u);
}

TEST(ObsRegistry, TimelineDisabledRecordsNothing) {
  MetricsConfig cfg;
  cfg.timeline = false;
  MetricsRegistry reg(cfg);
  reg.reset(2);
  reg.actor(1).span(TraceKind::kIteration, 0.0, 5.0);
  reg.actor(1).instant(TraceKind::kStop, 1.0);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.trace_events, 0u);
  EXPECT_EQ(snap.dropped_trace_events, 0u);
}

TEST(ObsRegistry, ToJsonIsParseableAndComplete) {
  MetricsRegistry reg;
  reg.set_actor_kind("rank");
  reg.reset(2);
  reg.actor(0).add(Counter::kMessagesSent, 5);
  reg.actor(1).add(Counter::kMessagesSent, 7);
  reg.actor(1).add(Counter::kPolicyDraws, 3);
  reg.actor(0).record(Hist::kMessageLatencyUs, 120);
  const std::string text =
      to_json(reg.snapshot(), {{"matrix", "fd-8x8"}, {"threads", "2"}});

  const JsonValue doc = parse_json(text);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema_version")->number, kMetricsSchemaVersion);
  EXPECT_EQ(doc.find("kind")->string, "ajac-metrics-snapshot");
  EXPECT_EQ(doc.find("metadata")->find("matrix")->string, "fd-8x8");
  EXPECT_EQ(doc.find("num_actors")->number, 2.0);

  // Every counter and histogram name appears, even unused ones.
  const JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->object.size(), kNumCounters);
  const JsonValue* sent = counters->find("messages_sent");
  ASSERT_NE(sent, nullptr);
  EXPECT_EQ(sent->find("total")->number, 12.0);
  ASSERT_EQ(sent->find("per_actor")->array.size(), 2u);
  EXPECT_EQ(sent->find("per_actor")->array[1].number, 7.0);

  // Schema v2 added the policy_draws counter, v3 removed the batch-only
  // lane_relaxations, batch_occupancy and column_relaxations, v4 removed
  // the residual-weighted policy's refresh counter, and v5 added
  // minor_faults: pin the version and the exported name so a rename or
  // version slip is caught here rather than by downstream trend tooling
  // (the bench reports embed both).
  EXPECT_EQ(kMetricsSchemaVersion, 5);
  const JsonValue* draws = counters->find("policy_draws");
  ASSERT_NE(draws, nullptr);
  EXPECT_EQ(draws->find("total")->number, 3.0);
  EXPECT_EQ(draws->find("per_actor")->array[1].number, 3.0);

  const JsonValue* hists = doc.find("histograms");
  ASSERT_NE(hists, nullptr);
  EXPECT_EQ(hists->object.size(), kNumHists);
  const JsonValue* lat = hists->find("message_latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->find("count")->number, 1.0);
  EXPECT_EQ(lat->find("max")->number, 120.0);
  ASSERT_EQ(lat->find("buckets")->array.size(), 1u);  // sparse: one bucket
  EXPECT_EQ(lat->find("buckets")->array[0].array[2].number, 1.0);
}

}  // namespace
}  // namespace ajac::obs
