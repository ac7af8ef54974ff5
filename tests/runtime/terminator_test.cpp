// Terminator safety and liveness under scripted interleavings.
//
// Every test drives one Terminator from a single thread, playing the role
// of several actors in an explicit order, against fake per-actor
// fresh-norm shares whose values the script controls. That makes each
// schedule exact and repeatable: the properties below hold for *every*
// interleaving the racy runtimes can produce, because a real run is just
// one such script with stale flag reads mixed in (a stale read can only
// delay a poll, which the scripts model by polling late or not at all).

#include "ajac/runtime/terminator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "ajac/gen/fd.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/runtime/blocked_kernels.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "ajac/runtime/shared_vector.hpp"
#include "ajac/sparse/blocked_csr.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "test_helpers.hpp"

namespace ajac::runtime {
namespace {

constexpr double kTol = 1e-3;
constexpr index_t kCap = 8;

/// Fresh-norm stand-in: `norm` is the scripted absolute norm. Actor 0's
/// share is all of it and every other actor's is 0, so a round's
/// actor-order sum is exactly norm. `calls` counts the shares asked for.
struct FakeFresh {
  double norm = 0.0;
  int calls = 0;
  /// The own_fresh callback of `actor`.
  auto of(index_t actor) {
    return [this, actor] {
      ++calls;
      return actor == 0 ? norm : 0.0;
    };
  }
};

/// Every actor polls once at `iter`, in actor order: one whole
/// verification round when every flag is up. Returns how many of the
/// polls reported the global stop.
int poll_all(Terminator& term, index_t actors, index_t iter,
             FakeFresh& fresh) {
  int reported = 0;
  for (index_t t = 0; t < actors; ++t) {
    reported += term.poll(t, iter, fresh.of(t)) ? 1 : 0;
  }
  return reported;
}

TEST(Terminator, NoStopWhileFreshNormAboveTolerance) {
  Terminator term(3, 2.0, kTol, kCap);
  FakeFresh fresh{2.0 * kTol * 1.5};
  for (index_t t = 0; t < 3; ++t) EXPECT_TRUE(term.flag(t, 1, 0.0));
  for (int pass = 0; pass < 4; ++pass) {
    EXPECT_EQ(poll_all(term, 3, 1, fresh), 0);
    EXPECT_FALSE(term.stopped());
    EXPECT_FALSE(term.stopped());
  }
  // Every flag was up on every pass, so every pass ran a whole round, one
  // share per actor — and refused.
  EXPECT_EQ(fresh.calls, 4 * 3);
  EXPECT_EQ(term.rounds(), 4U);
  EXPECT_FALSE(term.round_open());

  // The same flags with a fresh norm at the tolerance do stop.
  fresh.norm = 2.0 * kTol;
  EXPECT_EQ(poll_all(term, 3, 2, fresh), 1);
  EXPECT_TRUE(term.stopped());
  EXPECT_EQ(term.stop_iteration(), 2);
}

TEST(Terminator, NoVerificationUntilEveryFlagIsUp) {
  Terminator term(3, 1.0, kTol, kCap);
  FakeFresh fresh{0.0};
  EXPECT_TRUE(term.flag(0, 1, kTol));
  EXPECT_TRUE(term.flag(1, 1, 0.0));
  EXPECT_FALSE(term.flag(2, 1, 2.0 * kTol));
  EXPECT_EQ(poll_all(term, 3, 1, fresh), 0);
  EXPECT_EQ(fresh.calls, 0);
  // A flag that went up can come down again: the lowered actor blocks.
  EXPECT_TRUE(term.flag(2, 2, 0.0));
  EXPECT_FALSE(term.flag(0, 2, 2.0 * kTol));
  EXPECT_EQ(poll_all(term, 3, 2, fresh), 0);
  EXPECT_EQ(fresh.calls, 0);
  EXPECT_EQ(term.rounds(), 0U);
  EXPECT_FALSE(term.stopped());
}

/// Where a scripted actor's racy norm comes from.
enum class RacyNorm {
  kDrawn,     ///< a random draw, converged-looking or not
  kPartials,  ///< publish a random partial, then read the summed partials
};

struct ScriptStats {
  int stops = 0;      ///< scripts that ended in a global stop
  int cap_stops = 0;  ///< latches justified only by every actor at the cap
  int refused = 0;    ///< verification rounds that closed without a latch
};

/// Random scripts over 4 actors: actors advance in random order, flag on
/// racy norms from `source` and poll, and every actor's fresh share
/// wanders around a quarter of the tolerance. Whenever a poll latches the
/// stop, the state it saw must justify it: every actor at the cap, or the
/// last share each actor served (one round) summing to the tolerance or
/// below.
ScriptStats run_latch_scripts(std::uint64_t salt, RacyNorm source) {
  const std::uint64_t seed = ajac::testing::test_seed(salt);
  SCOPED_TRACE(::testing::Message() << "seed=" << seed);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  constexpr index_t kActors = 4;
  constexpr double kR0 = 4.0;
  ScriptStats stats;
  const auto slot = [](index_t t) { return static_cast<std::size_t>(t); };
  int calls = 0;
  for (int script = 0; script < 400; ++script) {
    Terminator term(kActors, kR0, kTol, kCap);
    std::vector<double> shares(kActors, 0.0);
    std::vector<double> served(kActors, 0.0);
    std::vector<index_t> iter(kActors, 0);
    int reported = 0;
    for (int event = 0; event < 200 && !term.stopped(); ++event) {
      const auto t = static_cast<index_t>(rng() % kActors);
      auto& it = iter[slot(t)];
      if (!term.at_cap(it)) {
        ++it;
        const bool low = unit(rng) < 0.7;
        if (source == RacyNorm::kDrawn) {
          term.flag(t, it, low ? 0.5 * kTol : 2.0 * kTol);
        } else {
          // The partials have nothing to do with the fresh norm.
          const double share = kR0 * kTol / static_cast<double>(kActors);
          term.publish_partial(t, share * (low ? 0.5 : 5.0));
          term.flag(t, it, term.racy_rel());
        }
      }
      // Quarters of the tolerance are exact, so a round passes iff each
      // share of it is low.
      for (index_t u = 0; u < kActors; ++u) {
        shares[slot(u)] = kR0 * kTol / 4.0 * (unit(rng) < 0.75 ? 0.5 : 3.0);
      }
      const std::uint32_t closed =
          term.rounds() - (term.round_open() ? 1U : 0U);
      reported += term.poll(t, it, [&] {
        ++calls;
        served[slot(t)] = shares[slot(t)];
        return shares[slot(t)];
      }) ? 1 : 0;
      if (!term.stopped()) {
        const std::uint32_t now =
            term.rounds() - (term.round_open() ? 1U : 0U);
        stats.refused += static_cast<int>(now - closed);
        continue;
      }
      bool all_at_cap = true;
      for (const index_t i : iter) all_at_cap = all_at_cap && term.at_cap(i);
      double norm = 0.0;  // the last round's shares, in actor order
      for (index_t u = 0; u < kActors; ++u) norm += served[slot(u)];
      EXPECT_TRUE(all_at_cap || norm / kR0 <= kTol)
          << "stop latched without justification";
      EXPECT_EQ(term.stop_iteration(), it);
      stats.cap_stops += all_at_cap && norm / kR0 > kTol ? 1 : 0;
    }
    EXPECT_EQ(reported, term.stopped() ? 1 : 0);
    stats.stops += term.stopped() ? 1 : 0;
  }
  EXPECT_GT(calls, 0);
  return stats;
}

TEST(Terminator, StopImpliesVerifiedResidualOrEveryActorAtCap) {
  const ScriptStats stats = run_latch_scripts(/*salt=*/301, RacyNorm::kDrawn);
  // The scripts must actually exercise both stop paths.
  EXPECT_GT(stats.stops, 0);
  EXPECT_GT(stats.cap_stops, 0);
}

TEST(Terminator, ActorFlaggingOnlyAtTheCapStillEndsTheSolve) {
  // Actor 0's racy norm never meets the tolerance, so its flag rises only
  // when it reaches the cap; the fresh norm never verifies either.
  Terminator term(3, 1.0, kTol, kCap);
  FakeFresh fresh{1.0};
  for (index_t it = 1; it <= kCap; ++it) {
    EXPECT_EQ(term.flag(0, it, 1.0), it == kCap);
    if (it < kCap) {
      EXPECT_FALSE(term.poll(0, it, fresh.of(0)));
    }
  }
  // Actor 0 is parked; the others still have work, so parking polls
  // open rounds that the others' polls complete and refuse, until they
  // too reach the cap.
  for (index_t it = 1; it <= kCap; ++it) {
    term.flag(1, it, 0.0);
    term.flag(2, it, 0.0);
    const bool decided = term.park(0, kCap, fresh.of(0));
    EXPECT_EQ(decided, it == kCap) << "iteration " << it;
    EXPECT_FALSE(term.poll(1, it, fresh.of(1)));
    EXPECT_FALSE(term.poll(2, it, fresh.of(2)));
  }
  EXPECT_TRUE(term.stopped());
  EXPECT_EQ(term.rounds(), static_cast<std::uint32_t>(kCap - 1));

  // Same schedule, but the fresh norm verifies as soon as actor 0's cap
  // flag completes the set: the solve ends without the others at the cap.
  Terminator early(3, 1.0, kTol, kCap);
  FakeFresh good{0.0};
  for (index_t it = 1; it < kCap; ++it) early.flag(0, it, 1.0);
  early.flag(1, 3, 0.0);
  early.flag(2, 3, 0.0);
  EXPECT_EQ(poll_all(early, 3, 3, good), 0);
  early.flag(0, kCap, 1.0);
  EXPECT_FALSE(early.poll(1, 3, good.of(1)));
  EXPECT_FALSE(early.poll(2, 3, good.of(2)));
  EXPECT_TRUE(early.park(0, kCap, good.of(0)));
  EXPECT_TRUE(early.stopped());
}

TEST(Terminator, ZeroToleranceStopsOnlyAtTheCap) {
  Terminator term(2, 1.0, 0.0, kCap);
  FakeFresh fresh{0.0};
  for (index_t it = 1; it < kCap; ++it) {
    EXPECT_FALSE(term.flag(0, it, 0.0));
    EXPECT_FALSE(term.flag(1, it, 0.0));
    EXPECT_EQ(poll_all(term, 2, it, fresh), 0);
  }
  term.flag(0, kCap, 0.0);
  term.flag(1, kCap, 0.0);
  EXPECT_TRUE(term.poll(0, kCap, fresh.of(0)));
  EXPECT_EQ(fresh.calls, 0);
  EXPECT_EQ(term.rounds(), 0U);
}

TEST(Terminator, AheadOfSlowestReadsThePublishedCounts) {
  Terminator term(3, 1.0, kTol, kCap);
  EXPECT_FALSE(term.ahead_of_slowest(0));  // every count starts at 0
  term.flag(0, 5, 1.0);
  EXPECT_TRUE(term.ahead_of_slowest(5));  // actors 1 and 2 are at 0
  term.flag(1, 5, 1.0);
  term.flag(2, 3, 1.0);
  EXPECT_TRUE(term.ahead_of_slowest(5));
  EXPECT_FALSE(term.ahead_of_slowest(3));  // the slowest keeps its core
  term.flag(2, 5, 1.0);
  EXPECT_FALSE(term.ahead_of_slowest(5));  // all level: nobody is behind
}

TEST(Terminator, LatchedColumnNeverUnlatches) {
  Terminator term(2, 1.0, kTol, kCap);
  FakeFresh fresh{0.0};
  for (index_t t = 0; t < 2; ++t) term.flag(t, 1, 0.0);
  EXPECT_EQ(poll_all(term, 2, 1, fresh), 1);
  ASSERT_TRUE(term.stopped());
  ASSERT_EQ(term.rounds(), 1U);
  // Everything that could argue against the stop now does: lowered flags,
  // a fresh norm far above the tolerance, later polls and parks. None of
  // them opens a round, reports the stop or moves its iteration.
  fresh.norm = 1e6;
  for (index_t it = 2; it < kCap; ++it) {
    for (index_t t = 0; t < 2; ++t) term.flag(t, it, 1e6);
    EXPECT_EQ(poll_all(term, 2, it, fresh), 0);
    EXPECT_FALSE(term.park(1, it, fresh.of(1)));
    EXPECT_TRUE(term.stopped());
    EXPECT_EQ(term.stop_iteration(), 1);
    EXPECT_EQ(term.rounds(), 1U);
  }
  EXPECT_EQ(fresh.calls, 2);
}

TEST(Terminator, GlobalStopOnlyOnceEveryColumnLatched) {
  // The one column's latch is the global stop: a refused round sets
  // neither, and the round that latches has exactly one poll report it.
  Terminator term(2, 0.0, kTol, kCap);  // an r0 of 0 is read as 1
  EXPECT_DOUBLE_EQ(term.r0_norm(), 1.0);
  EXPECT_DOUBLE_EQ(term.racy_rel(), 2.0);  // both placeholders are r0
  FakeFresh fresh{2.0 * kTol};
  for (index_t t = 0; t < 2; ++t) term.flag(t, 1, 0.0);
  EXPECT_EQ(poll_all(term, 2, 1, fresh), 0);
  EXPECT_FALSE(term.stopped());
  // Over an r0 of 0 no norm would pass; over 1 this one does.
  fresh.norm = 0.5 * kTol;
  EXPECT_EQ(poll_all(term, 2, 2, fresh), 1);
  EXPECT_TRUE(term.stopped());
  EXPECT_EQ(term.stop_iteration(), 2);
  // Every actor that polls after the stop is told it was not the one.
  EXPECT_FALSE(term.poll(0, 9, fresh.of(0)));
  EXPECT_FALSE(term.park(1, 9, fresh.of(1)));
  EXPECT_EQ(term.stop_iteration(), 2);
}

TEST(Terminator, VerifyAndPolishMeetsTheToleranceWithinTheBudget) {
  const CsrMatrix a = gen::fd_laplacian_2d(8, 8);
  const auto n = static_cast<std::size_t>(a.num_rows());
  const Vector b(n, 1.0);
  Vector inv_diag = a.diagonal();
  for (double& d : inv_diag) d = 1.0 / d;
  const double r0 = vec::norm1(b);  // x0 = 0

  Vector x(n, 0.0);
  const PolishOutcome off =
      verify_and_polish(a, b, inv_diag, r0, 1e-2, false, 1000, x);
  EXPECT_EQ(off.sweeps, 0);
  EXPECT_DOUBLE_EQ(off.rel_residual_1, 1.0);
  EXPECT_FALSE(off.converged);

  const PolishOutcome capped =
      verify_and_polish(a, b, inv_diag, r0, 1e-2, true, 3, x);
  EXPECT_EQ(capped.sweeps, 3);
  EXPECT_FALSE(capped.converged);

  const PolishOutcome on =
      verify_and_polish(a, b, inv_diag, r0, 1e-2, true, 1000, x);
  EXPECT_GT(on.sweeps, 0);
  EXPECT_LT(on.sweeps, 1000);
  EXPECT_TRUE(on.converged);
  Vector r(n);
  a.residual(x, b, r);
  EXPECT_EQ(on.rel_residual_1, vec::norm1(r) / r0);

  // Already converged: verification only.
  const PolishOutcome again =
      verify_and_polish(a, b, inv_diag, r0, 1e-2, true, 1000, x);
  EXPECT_EQ(again.sweeps, 0);
  EXPECT_TRUE(again.converged);
}

// --- O(P) aggregation: the racy norm is the sum of published partials ---

TEST(Terminator, MissingOrStalePartialOnlyDelaysTheStop) {
  // An actor that has not published counts at the whole r0 norm, which
  // holds every flag down.
  Terminator term(3, 2.0, kTol, kCap);
  EXPECT_EQ(term.racy_rel(), 3.0);
  term.publish_partial(0, 0.0);
  term.publish_partial(1, 0.0);
  EXPECT_EQ(term.racy_rel(), 1.0);
  FakeFresh fresh{0.0};
  for (index_t t = 0; t < 3; ++t) {
    EXPECT_FALSE(term.flag(t, 1, term.racy_rel()));
  }
  EXPECT_EQ(poll_all(term, 3, 1, fresh), 0);
  EXPECT_EQ(fresh.calls, 0);

  // Stale partials that look converged raise every flag, but the fresh
  // norm is above the tolerance: verification refuses the stop.
  term.publish_partial(2, 0.0);
  fresh.norm = 2.0 * kTol * 1.5;
  for (index_t t = 0; t < 3; ++t) {
    EXPECT_TRUE(term.flag(t, 2, term.racy_rel()));
  }
  EXPECT_EQ(poll_all(term, 3, 2, fresh), 0);
  EXPECT_EQ(fresh.calls, 3);  // one round, one share per actor
  EXPECT_EQ(term.rounds(), 1U);
  EXPECT_FALSE(term.stopped());
}

TEST(Terminator, StalePartialsNeverCauseAnUnverifiedStop) {
  // Actors flag on summed partials that look converged or not at random;
  // every latch must still be justified by the fresh norm or the cap.
  const ScriptStats stats =
      run_latch_scripts(/*salt=*/302, RacyNorm::kPartials);
  // Stale partials must actually trigger refused verifications.
  EXPECT_GT(stats.stops, 0);
  EXPECT_GT(stats.refused, 0);
}

TEST(Terminator, PartialsAreSummedInActorOrder) {
  // 1e16 + 1 rounds back to 1e16, so the three partials sum to 1e16 in
  // actor order and to 1e16 + 2 in reverse order, which adds the ones
  // first.
  const std::vector<double> partials = {1e16, 1.0, 1.0};
  const double in_order = (partials[0] + partials[1]) + partials[2];
  ASSERT_NE(in_order, (partials[2] + partials[1]) + partials[0]);
  Terminator term(3, 1.0, kTol, kCap);
  for (index_t t = 2; t >= 0; --t) {  // publication order does not matter
    term.publish_partial(t, partials[static_cast<std::size_t>(t)]);
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(term.racy_rel()),
            std::bit_cast<std::uint64_t>(in_order));

  // The sum is taken over r0.
  Terminator scaled(2, 2.0, kTol, kCap);
  scaled.publish_partial(0, 10.0);
  scaled.publish_partial(1, 20.0);
  EXPECT_EQ(scaled.racy_rel(), 15.0);
}

// --- Verification rounds: the fresh norm is split across the actors ---

/// Per-actor shares the script sets directly: share[t] is what actor t
/// serves.
struct Shares {
  std::vector<double> share;
  int calls = 0;
  auto of(index_t actor) {
    return [this, actor] {
      ++calls;
      return share[static_cast<std::size_t>(actor)];
    };
  }
};

void raise_all_flags(Terminator& term, index_t actors, index_t iter) {
  for (index_t t = 0; t < actors; ++t) EXPECT_TRUE(term.flag(t, iter, 0.0));
}

TEST(Terminator, NoLatchWithFewerThanEveryShare) {
  // Two of three shares already sum far below the tolerance, yet the round
  // waits for the third; repeated polls by the actors that served add
  // nothing.
  Terminator term(3, 1.0, kTol, kCap);
  Shares fresh{{0.0, 0.0, 0.0}};
  raise_all_flags(term, 3, 1);
  EXPECT_FALSE(term.poll(0, 1, fresh.of(0)));
  EXPECT_TRUE(term.round_open());
  EXPECT_FALSE(term.poll(1, 1, fresh.of(1)));
  for (int pass = 0; pass < 5; ++pass) {
    EXPECT_FALSE(term.poll(0, 2, fresh.of(0)));
    EXPECT_FALSE(term.poll(1, 2, fresh.of(1)));
  }
  EXPECT_EQ(fresh.calls, 2);
  EXPECT_FALSE(term.stopped());
  EXPECT_TRUE(term.round_open());
  EXPECT_TRUE(term.poll(2, 1, fresh.of(2)));
  EXPECT_EQ(fresh.calls, 3);
  EXPECT_EQ(term.stop_iteration(), 1);
  EXPECT_EQ(term.rounds(), 1U);
}

TEST(Terminator, FailedRoundClosesAndReopens) {
  Terminator term(2, 1.0, kTol, kCap);
  Shares fresh{{kTol, kTol}};  // sums to 2 tol: refused
  raise_all_flags(term, 2, 1);
  EXPECT_FALSE(term.poll(0, 1, fresh.of(0)));
  EXPECT_FALSE(term.poll(1, 1, fresh.of(1)));
  EXPECT_FALSE(term.stopped());
  EXPECT_FALSE(term.round_open());
  EXPECT_EQ(term.rounds(), 1U);

  // Lowered flags keep the round closed; raised again, the next poll opens
  // round 2, which the same actors serve afresh.
  EXPECT_FALSE(term.flag(1, 2, 1.0));
  EXPECT_FALSE(term.poll(0, 2, fresh.of(0)));
  EXPECT_EQ(term.rounds(), 1U);
  raise_all_flags(term, 2, 3);
  fresh.share = {0.5 * kTol, 0.5 * kTol};
  EXPECT_FALSE(term.poll(1, 3, fresh.of(1)));
  EXPECT_TRUE(term.round_open());
  EXPECT_EQ(term.rounds(), 2U);
  EXPECT_TRUE(term.poll(0, 3, fresh.of(0)));
  EXPECT_EQ(term.stop_iteration(), 3);
  EXPECT_EQ(fresh.calls, 4);
}

TEST(Terminator, ClosedRoundShareNeverCountsTowardANewerRound) {
  // Round 1: actor 2 serves a share of 0 and the others refuse it. In
  // round 2 actors 0 and 1 serve 0: had actor 2's round-1 share counted
  // again, two shares would have latched the stop.
  Terminator term(3, 1.0, kTol, kCap);
  Shares fresh{{1.0, 1.0, 0.0}};
  raise_all_flags(term, 3, 1);
  for (index_t t = 2; t >= 0; --t) {
    EXPECT_FALSE(term.poll(t, 1, fresh.of(t)));
  }
  EXPECT_EQ(term.rounds(), 1U);
  EXPECT_FALSE(term.round_open());

  fresh.share = {0.0, 0.0, 1.0};
  EXPECT_FALSE(term.poll(0, 2, fresh.of(0)));
  EXPECT_FALSE(term.poll(1, 2, fresh.of(1)));
  EXPECT_FALSE(term.poll(0, 2, fresh.of(0)));
  EXPECT_FALSE(term.stopped());
  EXPECT_TRUE(term.round_open());
  // Actor 2's round-2 share is its fresh one, and it refuses the round.
  EXPECT_FALSE(term.poll(2, 2, fresh.of(2)));
  EXPECT_FALSE(term.stopped());
  EXPECT_FALSE(term.round_open());
  EXPECT_EQ(term.rounds(), 2U);
  EXPECT_EQ(fresh.calls, 6);
}

TEST(Terminator, ParkedActorsShareCompletesTheRound) {
  // Actor 1 is parked at the cap; actor 0 opens a round that only the
  // parked actor's next pass can complete.
  Terminator term(2, 1.0, kTol, kCap);
  Shares fresh{{0.25 * kTol, 0.25 * kTol}};
  EXPECT_TRUE(term.flag(1, kCap, 1.0));  // up at the cap
  EXPECT_TRUE(term.flag(0, 3, 0.0));
  EXPECT_FALSE(term.poll(0, 3, fresh.of(0)));
  EXPECT_TRUE(term.round_open());
  EXPECT_TRUE(term.park(1, kCap, fresh.of(1)));
  EXPECT_TRUE(term.stopped());
  EXPECT_EQ(term.stop_iteration(), kCap);
}

TEST(Terminator, StalledActorDelaysTheStopButNeverBlocksIt) {
  // Actor 1 stalls for many of the others' iterations: the round stays
  // open, the others serve it once each and keep running, and the stalled
  // actor's first poll after the stall completes the round.
  Terminator term(3, 1.0, kTol, kCap);
  Shares fresh{{0.0, 0.0, 0.0}};
  raise_all_flags(term, 3, 1);
  for (index_t it = 1; it < kCap; ++it) {
    for (const index_t t : {0, 2}) {
      EXPECT_TRUE(term.flag(t, it, 0.0));
      EXPECT_FALSE(term.poll(t, it, fresh.of(t)));
    }
  }
  EXPECT_FALSE(term.stopped());
  EXPECT_EQ(fresh.calls, 2);
  EXPECT_TRUE(term.poll(1, 1, fresh.of(1)));
  EXPECT_TRUE(term.stopped());
  EXPECT_EQ(term.stop_iteration(), 1);
}

TEST(Terminator, SingleActorVerifiedNormIsBitwiseTheSerialScan) {
  // At one actor the blocked share is the fresh residual norm summed over
  // every row ascending, bitwise vec::norm1 of CsrMatrix::residual, and
  // the round latches on exactly that value: at tol = norm / r0 it stops,
  // one ulp below it does not.
  const auto p = gen::make_problem("fd9", gen::fd_laplacian_2d(9, 9),
                                   ajac::testing::test_seed(/*salt=*/304));
  const index_t n = p.a.num_rows();
  Vector x = p.x0;
  for (index_t i = 0; i < n; ++i) x[i] += 0.125 * static_cast<double>(i % 7);
  Vector r(static_cast<std::size_t>(n));
  p.a.residual(x, p.b, r);
  const double serial = vec::norm1(r);
  ASSERT_GT(serial, 0.0);

  const index_t starts[] = {0, n};
  const BlockedCsr blocked(p.a, starts);
  SharedVector shared(n);
  OwnBlockState own;
  shared.writer_role().assert_held();
  own.owner.assert_held();
  shared.init(x);
  refresh_own_block(blocked.block(0), shared, own);
  const double share = block_residual_1(blocked.block(0), p.b, own, shared);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(share),
            std::bit_cast<std::uint64_t>(serial));

  const double r0 = 4.0 * serial;
  const double rel = serial / r0;
  const auto own_fresh = [&] { return share; };
  Terminator at(1, r0, rel, kCap);
  EXPECT_TRUE(at.flag(0, 1, 0.0));
  EXPECT_TRUE(at.poll(0, 1, own_fresh));
  Terminator below(1, r0, std::nextafter(rel, 0.0), kCap);
  EXPECT_TRUE(below.flag(0, 1, 0.0));
  EXPECT_FALSE(below.poll(0, 1, own_fresh));
  EXPECT_EQ(below.rounds(), 1U);
}

TEST(Terminator, SingleThreadNormIsBitwiseTheSequentialScan) {
  // At one thread the aggregated norm of iteration k is the 1-norm of
  // b - A x_(k-1) summed over all rows ascending, divided by r0's, for
  // every kernel: x_(k-1) is the iterate a (k-1)-iteration solve returns.
  const auto p = gen::make_problem("fd12", gen::fd_laplacian_2d(12, 12),
                                   ajac::testing::test_seed(/*salt=*/303));
  const auto n = static_cast<std::size_t>(p.a.num_rows());
  constexpr index_t kIters = 6;
  auto rel_of = [&](const Vector& x, double r0) {
    Vector r(n);
    p.a.residual(x, p.b, r);
    return vec::norm1(r) / r0;
  };
  const double r0 = rel_of(p.x0, 1.0);
  for (const KernelKind kernel :
       {KernelKind::kBlocked, KernelKind::kReference, KernelKind::kSellCS}) {
    SCOPED_TRACE(::testing::Message() << "kernel " << static_cast<int>(kernel));
    SharedOptions so;
    so.num_threads = 1;
    so.synchronous = true;
    so.tolerance = 0.0;
    so.max_iterations = kIters;
    so.record_history = true;
    so.kernel = kernel;
    const SharedResult run = solve_shared(p.a, p.b, p.x0, so);
    ASSERT_EQ(run.history.size(), static_cast<std::size_t>(kIters));
    Vector x = p.x0;
    for (index_t k = 1; k <= kIters; ++k) {
      if (k > 1) {
        SharedOptions prefix = so;
        prefix.max_iterations = k - 1;
        prefix.record_history = false;
        x = solve_shared(p.a, p.b, p.x0, prefix).x;
      }
      const double seen =
          run.history[static_cast<std::size_t>(k - 1)].rel_residual_1;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(seen),
                std::bit_cast<std::uint64_t>(rel_of(x, r0)))
          << "iteration " << k;
    }
  }
}

}  // namespace
}  // namespace ajac::runtime
