// FaultClock / FaultPlan unit tests: the keyed-hash decision source, the
// duty-cycle and bit-flip helpers, plan validation, and the log utilities.

#include "ajac/fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

namespace ajac::fault {
namespace {

TEST(FaultClock, SameKeySameBits) {
  const FaultClock clk(123);
  EXPECT_EQ(clk.bits(FaultClock::kMessageDrop, 7, 11, 2),
            clk.bits(FaultClock::kMessageDrop, 7, 11, 2));
  // A fresh clock with the same seed makes the same decisions: there is no
  // hidden state to advance.
  const FaultClock clk2(123);
  EXPECT_EQ(clk.bits(FaultClock::kBitFlipEntry, 1, 2, 3),
            clk2.bits(FaultClock::kBitFlipEntry, 1, 2, 3));
}

TEST(FaultClock, StreamsAndKeysAreIndependent) {
  const FaultClock clk(123);
  std::set<std::uint64_t> seen;
  for (std::uint64_t stream : {FaultClock::kMessageDrop,
                               FaultClock::kMessageDuplicate,
                               FaultClock::kMessageReorder}) {
    for (std::uint64_t a = 0; a < 4; ++a) {
      for (std::uint64_t b = 0; b < 4; ++b) {
        seen.insert(clk.bits(stream, a, b));
      }
    }
  }
  EXPECT_EQ(seen.size(), 3u * 4u * 4u);  // no collisions on this tiny set
  EXPECT_NE(clk.bits(1, 2, 3), FaultClock(124).bits(1, 2, 3));
}

TEST(FaultClock, UniformAndBernoulliBehave) {
  const FaultClock clk(99);
  double sum = 0.0;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const double u = clk.uniform(FaultClock::kMessageDrop, 0, k);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
  for (std::uint64_t k = 0; k < 100; ++k) {
    EXPECT_FALSE(clk.bernoulli(0.0, FaultClock::kMessageDrop, 0, k));
    EXPECT_TRUE(clk.bernoulli(1.0, FaultClock::kMessageDrop, 0, k));
    EXPECT_LT(clk.pick(7, FaultClock::kBitFlipBit, 0, k), 7u);
  }
}

TEST(FaultClock, DutyCycleWindows) {
  // period 4, duty 0.5: iterations 0,1 active, 2,3 inactive, repeating.
  for (index_t i : {0, 1, 4, 5, 8, 9}) EXPECT_TRUE(duty_active(4, 0.5, i));
  for (index_t i : {2, 3, 6, 7}) EXPECT_FALSE(duty_active(4, 0.5, i));
  for (index_t i = 0; i < 20; ++i) {
    EXPECT_TRUE(duty_active(4, 1.0, i));
    EXPECT_FALSE(duty_active(4, 0.0, i));
  }
}

TEST(FaultClock, FlipBitIsAnInvolutionAndStaysFinite) {
  const double v = -3.14159;
  for (int bit = 0; bit < 52; ++bit) {
    const double flipped = flip_bit(v, bit);
    EXPECT_NE(flipped, v);
    EXPECT_TRUE(std::isfinite(flipped));
    EXPECT_EQ(flip_bit(flipped, bit), v);
  }
  // Low mantissa bits are tiny relative perturbations.
  EXPECT_NEAR(flip_bit(v, 0), v, 1e-12);
}

FaultPlan valid_plan() {
  FaultPlan plan;
  plan.stragglers.push_back({.actor = 0});
  plan.stale_reads.push_back({.actor = 1, .period = 8, .duty = 0.5});
  plan.message_faults.push_back({.sender = -1, .receiver = 2,
                                 .drop_probability = 0.1});
  plan.bit_flips.push_back({.actor = -1, .probability = 0.01});
  plan.crashes.push_back({.actor = 3, .crash_iteration = 4});
  return plan;
}

TEST(FaultPlan, EmptyAndValidate) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan = valid_plan();
  EXPECT_FALSE(plan.empty());
  EXPECT_NO_THROW(plan.validate(4));
}

TEST(FaultPlan, ValidateRejectsOutOfRangeActors) {
  auto plan = valid_plan();
  EXPECT_THROW(plan.validate(3), std::logic_error);  // crash actor 3
  plan = valid_plan();
  plan.stragglers[0].actor = -1;  // stragglers require a concrete actor
  EXPECT_THROW(plan.validate(4), std::logic_error);
  plan = valid_plan();
  plan.message_faults[0].receiver = 9;
  EXPECT_THROW(plan.validate(4), std::logic_error);
}

TEST(FaultPlan, ValidateRejectsBadParameters) {
  auto plan = valid_plan();
  plan.message_faults[0].drop_probability = 1.5;
  EXPECT_THROW(plan.validate(4), std::logic_error);
  plan = valid_plan();
  plan.stale_reads[0].duty = -0.1;
  EXPECT_THROW(plan.validate(4), std::logic_error);
  plan = valid_plan();
  plan.stale_reads[0].period = 0;
  EXPECT_THROW(plan.validate(4), std::logic_error);
  plan = valid_plan();
  plan.bit_flips[0].bit = 63;  // sign bit: out of the allowed range
  EXPECT_THROW(plan.validate(4), std::logic_error);
  plan = valid_plan();
  plan.bit_flips[0].first_iteration = 10;
  plan.bit_flips[0].last_iteration = 5;
  EXPECT_THROW(plan.validate(4), std::logic_error);
  plan = valid_plan();
  plan.crashes[0].dead_seconds = -1.0;
  EXPECT_THROW(plan.validate(4), std::logic_error);
  plan = valid_plan();
  plan.stragglers[0].delay_factor = 0.5;
  EXPECT_THROW(plan.validate(4), std::logic_error);
  // An empty bit-flip window [5, 5).
  plan = valid_plan();
  plan.bit_flips[0].first_iteration = 5;
  plan.bit_flips[0].last_iteration = 5;
  EXPECT_THROW(plan.validate(4), std::logic_error);
  // Non-finite durations and factors would stall an actor forever.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {inf, nan}) {
    plan = valid_plan();
    plan.stragglers[0].extra_delay_us = bad;
    EXPECT_THROW(plan.validate(4), std::logic_error);
    plan = valid_plan();
    plan.stragglers[0].delay_factor = bad;
    EXPECT_THROW(plan.validate(4), std::logic_error);
    plan = valid_plan();
    plan.crashes[0].dead_seconds = bad;
    EXPECT_THROW(plan.validate(4), std::logic_error);
    plan = valid_plan();
    plan.message_faults[0].reorder_latency_factor = bad;
    EXPECT_THROW(plan.validate(4), std::logic_error);
  }
}

TEST(FaultPlan, ValidateRejectsDoubleInjection) {
  auto plan = valid_plan();
  plan.stragglers.push_back({.actor = 0});  // duplicate actor
  EXPECT_THROW(plan.validate(4), std::logic_error);
  plan = valid_plan();
  plan.stale_reads.push_back({.actor = -1});  // wildcard + explicit
  EXPECT_THROW(plan.validate(4), std::logic_error);
  plan = valid_plan();
  plan.crashes.push_back({.actor = 3});
  EXPECT_THROW(plan.validate(4), std::logic_error);
}

TEST(FaultLog, CanonicalizeSortsByActorThenCounter) {
  FaultLog log{
      {FaultKind::kBitFlip, 1, 5, 10, 3},
      {FaultKind::kStragglerOn, 0, 7, 0, 0},
      {FaultKind::kCrash, 0, 2, 0, 0},
      {FaultKind::kBitFlip, 1, 5, 4, 0},
  };
  canonicalize(log);
  EXPECT_EQ(log[0].actor, 0);
  EXPECT_EQ(log[0].counter, 2);
  EXPECT_EQ(log[1].counter, 7);
  EXPECT_EQ(log[2].detail, 4);  // same (actor, counter, kind): detail breaks
  EXPECT_EQ(log[3].detail, 10);
}

TEST(FaultLog, JsonRoundTripShape) {
  EXPECT_EQ(to_json(FaultLog{}), "[]");
  const FaultLog log{{FaultKind::kMessageDrop, 2, 17, 3, 0}};
  const std::string json = to_json(log);
  EXPECT_NE(json.find("\"kind\": \"message_drop\""), std::string::npos);
  EXPECT_NE(json.find("\"actor\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"counter\": 17"), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
}

TEST(FaultLog, KindNamesAreStable) {
  EXPECT_STREQ(kind_name(FaultKind::kStragglerOn), "straggler_on");
  EXPECT_STREQ(kind_name(FaultKind::kStaleWindowOn), "stale_window_on");
  EXPECT_STREQ(kind_name(FaultKind::kMessageDuplicate), "message_duplicate");
  EXPECT_STREQ(kind_name(FaultKind::kMessageReorder), "message_reorder");
  EXPECT_STREQ(kind_name(FaultKind::kBitFlip), "bit_flip");
  EXPECT_STREQ(kind_name(FaultKind::kCrash), "crash");
  EXPECT_STREQ(kind_name(FaultKind::kRecover), "recover");
}

}  // namespace
}  // namespace ajac::fault
