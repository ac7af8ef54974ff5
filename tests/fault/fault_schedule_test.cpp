// fault::ActorFaults unit tests: the per-actor schedule on its own,
// single-threaded, with no solver. Every runtime's fault determinism rests
// on these answers being a pure function of (plan, actor, counter).

#include "ajac/fault/actor_faults.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ajac::fault {
namespace {

std::vector<FaultKind> kinds(const FaultLog& log) {
  std::vector<FaultKind> out;
  for (const FaultEvent& e : log) out.push_back(e.kind);
  return out;
}

TEST(FaultSchedule, WindowsLogOnlyOnEntryAcrossTwoPeriods) {
  FaultPlan plan;
  // period 4, duty 0.5: on at iterations 0, 1, 4, 5.
  plan.stragglers.push_back(
      {.actor = 1, .extra_delay_us = 3.0, .period = 4, .duty = 0.5});
  plan.stale_reads.push_back({.actor = -1, .period = 4, .duty = 0.5});
  ActorFaults s(plan, 1);
  ASSERT_TRUE(s.has_stale_reads());
  EXPECT_FALSE(s.has_bit_flips());

  const std::vector<bool> on = {true, true, false, false,
                                true, true, false, false};
  for (index_t iter = 0; iter < 8; ++iter) {
    const IterationFaults f = s.begin_iteration(iter);
    const bool expect_on = on[static_cast<std::size_t>(iter)];
    EXPECT_EQ(f.stall_us, expect_on ? 3.0 : 0.0) << "iter " << iter;
    EXPECT_EQ(f.stale_active, expect_on) << "iter " << iter;
    EXPECT_EQ(f.stale_entered, iter == 0 || iter == 4) << "iter " << iter;
    EXPECT_FALSE(f.reset_state);
  }
  EXPECT_EQ(s.stalled_us(), 4 * 3.0);
  const FaultLog expected = {
      {FaultKind::kStragglerOn, 1, 0, 0, 0},
      {FaultKind::kStaleWindowOn, 1, 0, 0, 0},
      {FaultKind::kStragglerOn, 1, 4, 0, 0},
      {FaultKind::kStaleWindowOn, 1, 4, 0, 0},
  };
  EXPECT_EQ(s.log(), expected);

  // Another actor has the wildcard stale window but no straggler.
  ActorFaults other(plan, 0);
  EXPECT_EQ(other.begin_iteration(0).stall_us, 0.0);
  EXPECT_EQ(kinds(other.log()),
            std::vector<FaultKind>{FaultKind::kStaleWindowOn});
}

// The shared runtime keeps its unfaulted interior sweep for an actor
// without a bit-flip spec, so the lookup must name exactly those actors.
TEST(FaultSchedule, BitFlipSpecsResolvePerActor) {
  FaultPlan plan;
  plan.stragglers.push_back({.actor = 0, .extra_delay_us = 0.0});
  plan.bit_flips.push_back({.actor = 2});
  EXPECT_FALSE(ActorFaults(plan, 0).has_bit_flips());
  EXPECT_FALSE(ActorFaults(plan, 1).has_bit_flips());
  EXPECT_TRUE(ActorFaults(plan, 2).has_bit_flips());
  plan.bit_flips.front().actor = -1;  // every actor
  EXPECT_TRUE(ActorFaults(plan, 0).has_bit_flips());
  EXPECT_TRUE(ActorFaults(plan, 1).has_bit_flips());
}

TEST(FaultSchedule, CrashFiresOnceAndResetsOnlyWhenAsked) {
  for (const bool reset : {false, true}) {
    FaultPlan plan;
    plan.crashes.push_back({.actor = 0,
                            .crash_iteration = 3,
                            .dead_seconds = 2e-6,
                            .reset_state_on_recovery = reset});
    ActorFaults s(plan, 0);
    EXPECT_FALSE(s.has_stale_reads());
    int crashes = 0;
    for (index_t iter = 0; iter < 10; ++iter) {
      const IterationFaults f = s.begin_iteration(iter);
      if (iter == 3) {
        ++crashes;
        EXPECT_EQ(f.stall_us, 2e-6 * 1e6);
        EXPECT_EQ(f.reset_state, reset);
      } else {
        EXPECT_EQ(f.stall_us, 0.0) << "iter " << iter;
        EXPECT_FALSE(f.reset_state) << "iter " << iter;
      }
    }
    EXPECT_EQ(crashes, 1);
    const FaultLog expected = {{FaultKind::kCrash, 0, 3, 0, 0},
                               {FaultKind::kRecover, 0, 3, 0, 0}};
    EXPECT_EQ(s.take_log(), expected);
  }
}

TEST(FaultSchedule, CrashFiresAtFirstIterationPastATrigger) {
  // An actor first scheduled past its crash iteration (e.g. after a park)
  // still crashes once, at the first iteration it runs.
  FaultPlan plan;
  plan.crashes.push_back({.actor = 0, .crash_iteration = 2});
  ActorFaults s(plan, 0);
  (void)s.begin_iteration(5);
  (void)s.begin_iteration(6);
  EXPECT_EQ(kinds(s.log()),
            (std::vector<FaultKind>{FaultKind::kCrash, FaultKind::kRecover}));
  EXPECT_EQ(s.log().front().counter, 5);
}

TEST(FaultSchedule, DiagonalOnlyRowNeverFlips) {
  FaultPlan plan;
  plan.bit_flips.push_back({.actor = -1, .probability = 1.0});
  ActorFaults s(plan, 2);
  const std::vector<index_t> diag_only = {7};
  for (index_t iter = 0; iter < 50; ++iter) {
    EXPECT_FALSE(s.flip(iter, 7, diag_only).has_value());
  }
  EXPECT_TRUE(s.log().empty());

  // With off-diagonal entries every (iter, row) flips one of them, never
  // the diagonal, and logs (row, bit).
  const std::vector<index_t> cols = {3, 7, 9};
  const auto f = s.flip(4, 7, cols);
  ASSERT_TRUE(f.has_value());
  EXPECT_NE(cols[f->entry], 7);
  EXPECT_GE(f->bit, 0);
  EXPECT_LT(f->bit, 52);
  const FaultLog expected = {
      {FaultKind::kBitFlip, 2, 4, 7, static_cast<index_t>(f->bit)}};
  EXPECT_EQ(s.log(), expected);
}

TEST(FaultSchedule, FlipHonoursWindowAndFixedBit) {
  FaultPlan plan;
  plan.bit_flips.push_back({.actor = 0,
                            .probability = 1.0,
                            .bit = 11,
                            .first_iteration = 2,
                            .last_iteration = 4});
  ActorFaults s(plan, 0);
  const std::vector<index_t> cols = {0, 1};
  EXPECT_FALSE(s.flip(1, 0, cols).has_value());
  EXPECT_TRUE(s.flip(2, 0, cols).has_value());
  const auto f = s.flip(3, 0, cols);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->entry, 1u);
  EXPECT_EQ(f->bit, 11);
  EXPECT_FALSE(s.flip(4, 0, cols).has_value());
  // Another actor is not named by the spec.
  ActorFaults other(plan, 1);
  EXPECT_FALSE(other.flip(3, 0, cols).has_value());
}

TEST(FaultSchedule, MessageDecisionsEqualDirectClockCalls) {
  FaultPlan plan;
  plan.seed = 0xabcdef;
  plan.message_faults.push_back({.sender = 1,
                                 .receiver = -1,
                                 .drop_probability = 0.3,
                                 .duplicate_probability = 0.4});
  const FaultClock clock = plan.clock();
  ActorFaults s(plan, 1);
  const std::uint64_t edge = 0x100000002ULL;
  std::size_t drops = 0;
  std::size_t dups = 0;
  for (index_t k = 0; k < 200; ++k) {
    const auto ku = static_cast<std::uint64_t>(k);
    const bool drop =
        clock.bernoulli(0.3, FaultClock::kMessageDrop, edge, ku);
    const bool dup =
        clock.bernoulli(0.4, FaultClock::kMessageDuplicate, edge, ku);
    EXPECT_EQ(s.drop_message(edge, 2, k), drop) << "k " << k;
    EXPECT_EQ(s.duplicate_message(edge, 2, k), dup) << "k " << k;
    drops += drop ? 1 : 0;
    dups += dup ? 1 : 0;
  }
  EXPECT_GT(drops, 0u);
  EXPECT_GT(dups, 0u);
  EXPECT_EQ(s.log().size(), drops + dups);
  for (const FaultEvent& e : s.log()) {
    EXPECT_EQ(e.actor, 1);
    EXPECT_EQ(e.detail, 2);  // receiver
  }

  // Actor 0 sends nothing the spec names.
  ActorFaults quiet(plan, 0);
  for (index_t k = 0; k < 50; ++k) {
    EXPECT_FALSE(quiet.drop_message(edge, 2, k));
    EXPECT_FALSE(quiet.duplicate_message(edge, 2, k));
  }
  EXPECT_TRUE(quiet.log().empty());
}

TEST(FaultSchedule, ResolverFindsEachActorsSpecs) {
  FaultPlan plan;
  plan.stragglers.push_back({.actor = 1});
  plan.stale_reads.push_back({.actor = -1});
  plan.crashes.push_back({.actor = 2});
  plan.bit_flips.push_back({.actor = 1});
  plan.bit_flips.push_back({.actor = -1});
  plan.message_faults.push_back({.sender = 2});
  const ActorSpecs one = resolve_actor(plan, 1);
  EXPECT_EQ(one.straggler, &plan.stragglers[0]);
  EXPECT_EQ(one.stale, &plan.stale_reads[0]);
  EXPECT_EQ(one.crash, nullptr);
  EXPECT_EQ(one.bit_flips.size(), 2u);
  EXPECT_TRUE(one.messages.empty());
  const ActorSpecs two = resolve_actor(plan, 2);
  EXPECT_EQ(two.straggler, nullptr);
  EXPECT_EQ(two.crash, &plan.crashes[0]);
  EXPECT_EQ(two.bit_flips.size(), 1u);
  ASSERT_EQ(two.messages.size(), 1u);
  EXPECT_EQ(two.messages[0], &plan.message_faults[0]);
}

}  // namespace
}  // namespace ajac::fault
