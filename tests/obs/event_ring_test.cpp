// EventRing: the broadcast SPSC seqlock ring under the telemetry pipeline.
// Sequential tests pin the drop-oldest accounting exactly; the concurrent
// stress proves the seqlock protocol delivers only untorn beacons (and,
// under the tsan preset, that the protocol is race-free — the Telemetry
// suite prefix matches the preset's ctest filter).

#include "ajac/obs/event_ring.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace ajac::obs {
namespace {

Beacon make_beacon(std::uint64_t i) {
  // Self-validating payload: every field is a distinct function of i, so
  // a torn read (fields from two different beacons) cannot pass the
  // consistency check in the stress test below.
  Beacon b;
  b.ts_us = static_cast<double>(i) * 0.5;
  b.iteration = static_cast<std::int64_t>(i);
  b.relaxations = i * 3 + 1;
  b.own_residual_1 = 1.0 / static_cast<double>(i + 1);
  b.policy_draws = i * 7;
  return b;
}

void expect_beacon(const Beacon& b, std::uint64_t i) {
  EXPECT_EQ(b.ts_us, static_cast<double>(i) * 0.5);
  EXPECT_EQ(b.iteration, static_cast<std::int64_t>(i));
  EXPECT_EQ(b.relaxations, i * 3 + 1);
  EXPECT_EQ(b.own_residual_1, 1.0 / static_cast<double>(i + 1));
  EXPECT_EQ(b.policy_draws, i * 7);
}

TEST(TelemetryRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(EventRing(0).capacity(), 2u);
  EXPECT_EQ(EventRing(1).capacity(), 2u);
  EXPECT_EQ(EventRing(3).capacity(), 4u);
  EXPECT_EQ(EventRing(8).capacity(), 8u);
  EXPECT_EQ(EventRing(9).capacity(), 16u);
}

TEST(TelemetryRing, FifoRoundtripWithoutLoss) {
  EventRing ring(8);
  ring.writer.assert_held();
  for (std::uint64_t i = 0; i < 8; ++i) ring.publish(make_beacon(i));
  EXPECT_EQ(ring.published(), 8u);

  EventRing::Cursor c;
  Beacon b;
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.poll(c, b)) << "i=" << i;
    expect_beacon(b, i);
  }
  EXPECT_FALSE(ring.poll(c, b));
  EXPECT_EQ(c.dropped, 0u);
  EXPECT_EQ(c.next, 8u);
}

TEST(TelemetryRing, DropOldestCountsLappedBeacons) {
  EventRing ring(4);
  ring.writer.assert_held();
  for (std::uint64_t i = 0; i < 11; ++i) ring.publish(make_beacon(i));

  // A reader starting from zero lost beacons 0..6 and reads 7..10.
  EventRing::Cursor c;
  Beacon b;
  std::vector<std::uint64_t> got;
  while (ring.poll(c, b)) got.push_back(b.relaxations);
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k], (7 + k) * 3 + 1);
  }
  EXPECT_EQ(c.dropped, 7u);
  EXPECT_EQ(c.next, 11u);
}

TEST(TelemetryRing, IndependentCursorsSeeTheSameStream) {
  EventRing ring(8);
  ring.writer.assert_held();
  for (std::uint64_t i = 0; i < 5; ++i) ring.publish(make_beacon(i));

  EventRing::Cursor c1;
  EventRing::Cursor c2;
  Beacon b;
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.poll(c1, b));
    expect_beacon(b, i);
  }
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.poll(c2, b));
    expect_beacon(b, i);
  }
  EXPECT_FALSE(ring.poll(c1, b));
  EXPECT_FALSE(ring.poll(c2, b));
}

TEST(TelemetryRing, ResumingCursorAfterLongSilenceLosesNothing) {
  EventRing ring(4);
  ring.writer.assert_held();
  EventRing::Cursor c;
  Beacon b;
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < 3; ++i) {
      ring.publish(make_beacon(round * 3 + i));
    }
    for (std::uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.poll(c, b));
      expect_beacon(b, round * 3 + i);
    }
    EXPECT_FALSE(ring.poll(c, b));
  }
  EXPECT_EQ(c.dropped, 0u);
}

TEST(TelemetryRing, ConcurrentReaderNeverSeesTornBeacon) {
  // Small ring + fast writer: the reader is lapped constantly, so the
  // seqlock validation path (retry on mid-read overwrite) is exercised
  // hard. Every delivered beacon must be internally consistent, indices
  // strictly increasing, and delivered + dropped must account for every
  // published beacon.
  constexpr std::uint64_t kBeacons = 200000;
  EventRing ring(8);

  std::uint64_t delivered = 0;
  std::int64_t last_iter = -1;
  bool consistent = true;
  EventRing::Cursor c;

  std::thread reader([&] {
    Beacon b;
    for (;;) {
      if (!ring.poll(c, b)) {
        if (ring.published() >= kBeacons) {
          // Writer done: drain whatever is left, then exit.
          while (ring.poll(c, b)) {
            ++delivered;
          }
          return;
        }
        std::this_thread::yield();
        continue;
      }
      ++delivered;
      const auto i = static_cast<std::uint64_t>(b.iteration);
      if (b.relaxations != i * 3 + 1 || b.policy_draws != i * 7 ||
          b.ts_us != static_cast<double>(i) * 0.5) {
        consistent = false;
      }
      if (b.iteration <= last_iter) consistent = false;
      last_iter = b.iteration;
    }
  });

  ring.writer.assert_held();
  for (std::uint64_t i = 0; i < kBeacons; ++i) ring.publish(make_beacon(i));
  reader.join();

  EXPECT_TRUE(consistent);
  EXPECT_EQ(delivered + c.dropped, kBeacons);
  EXPECT_GT(delivered, 0u);
}

}  // namespace
}  // namespace ajac::obs
