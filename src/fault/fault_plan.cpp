#include "ajac/fault/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <tuple>

#include "ajac/util/check.hpp"

namespace ajac::fault {

namespace {

void check_actor(index_t actor, index_t num_actors, bool allow_any,
                 const char* what) {
  AJAC_CHECK_MSG(actor >= (allow_any ? -1 : 0) && actor < num_actors,
                 what << " actor " << actor << " out of range for "
                      << num_actors << " actors");
}

void check_probability(double p, const char* what) {
  AJAC_CHECK_MSG(p >= 0.0 && p <= 1.0,
                 what << " probability " << p << " outside [0, 1]");
}

/// A non-finite duration or factor would stall an actor forever (the
/// shared runtime and the mesh spin on it in wall time).
void check_finite(double v, const char* what) {
  AJAC_CHECK_MSG(std::isfinite(v), what << " " << v << " is not finite");
}

void check_duty(index_t period, double duty, const char* what) {
  AJAC_CHECK_MSG(period >= 1, what << " period " << period << " must be >= 1");
  AJAC_CHECK_MSG(duty >= 0.0 && duty <= 1.0,
                 what << " duty " << duty << " outside [0, 1]");
}

/// At most one spec of a kind per actor: a second would double-inject.
void check_unique_actors(const std::vector<index_t>& actors, const char* what) {
  std::vector<index_t> sorted = actors;
  std::sort(sorted.begin(), sorted.end());
  const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
  AJAC_CHECK_MSG(dup == sorted.end(),
                 "duplicate " << what << " spec for actor " << *dup);
  // A wildcard (-1) spec together with any other spec of the same kind is
  // also a double-injection on the explicit actor.
  AJAC_CHECK_MSG(sorted.empty() || sorted.front() != -1 || sorted.size() == 1,
                 "wildcard (-1) " << what
                                  << " spec cannot be combined with others");
}

}  // namespace

void FaultPlan::validate(index_t num_actors) const {
  AJAC_CHECK(num_actors >= 1);
  std::vector<index_t> actors;
  for (const StragglerSpec& s : stragglers) {
    check_actor(s.actor, num_actors, /*allow_any=*/false, "straggler");
    check_duty(s.period, s.duty, "straggler");
    check_finite(s.extra_delay_us, "straggler extra_delay_us");
    AJAC_CHECK_MSG(s.extra_delay_us >= 0.0,
                   "straggler extra_delay_us " << s.extra_delay_us << " < 0");
    check_finite(s.delay_factor, "straggler delay_factor");
    AJAC_CHECK_MSG(s.delay_factor >= 1.0,
                   "straggler delay_factor " << s.delay_factor << " < 1");
    actors.push_back(s.actor);
  }
  check_unique_actors(actors, "straggler");

  actors.clear();
  for (const StaleReadSpec& s : stale_reads) {
    check_actor(s.actor, num_actors, /*allow_any=*/true, "stale-read");
    check_duty(s.period, s.duty, "stale-read");
    actors.push_back(s.actor);
  }
  check_unique_actors(actors, "stale-read");

  for (const MessageFaultSpec& s : message_faults) {
    check_actor(s.sender, num_actors, /*allow_any=*/true, "message-fault sender");
    check_actor(s.receiver, num_actors, /*allow_any=*/true,
                "message-fault receiver");
    check_probability(s.drop_probability, "message drop");
    check_probability(s.duplicate_probability, "message duplicate");
    check_probability(s.reorder_probability, "message reorder");
    check_finite(s.reorder_latency_factor, "reorder_latency_factor");
    AJAC_CHECK_MSG(s.reorder_latency_factor >= 1.0,
                   "reorder_latency_factor " << s.reorder_latency_factor
                                             << " < 1");
  }

  for (const BitFlipSpec& s : bit_flips) {
    check_actor(s.actor, num_actors, /*allow_any=*/true, "bit-flip");
    check_probability(s.probability, "bit-flip");
    // Bit 63 would flip the sign; bits 52..62 the exponent. Explicit
    // exponent flips are allowed (they model the worst case) but the
    // pseudorandom default stays in the mantissa.
    AJAC_CHECK_MSG(s.bit >= -1 && s.bit < 63,
                   "bit-flip bit " << s.bit << " outside [-1, 62]");
    AJAC_CHECK_MSG(s.first_iteration >= 0 &&
                       s.first_iteration < s.last_iteration,
                   "bit-flip window [" << s.first_iteration << ", "
                                       << s.last_iteration << ") is empty");
  }

  actors.clear();
  for (const CrashSpec& s : crashes) {
    check_actor(s.actor, num_actors, /*allow_any=*/false, "crash");
    AJAC_CHECK_MSG(s.crash_iteration >= 0,
                   "crash_iteration " << s.crash_iteration << " < 0");
    check_finite(s.dead_seconds, "crash dead_seconds");
    AJAC_CHECK_MSG(s.dead_seconds >= 0.0,
                   "crash dead_seconds " << s.dead_seconds << " < 0");
    actors.push_back(s.actor);
  }
  check_unique_actors(actors, "crash");
}

const char* kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kStragglerOn:
      return "straggler_on";
    case FaultKind::kStaleWindowOn:
      return "stale_window_on";
    case FaultKind::kMessageDrop:
      return "message_drop";
    case FaultKind::kMessageDuplicate:
      return "message_duplicate";
    case FaultKind::kMessageReorder:
      return "message_reorder";
    case FaultKind::kBitFlip:
      return "bit_flip";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kRecover:
      return "recover";
  }
  return "unknown";
}

void canonicalize(FaultLog& log) {
  std::sort(log.begin(), log.end(),
            [](const FaultEvent& x, const FaultEvent& y) {
              return std::tie(x.actor, x.counter, x.kind, x.detail, x.detail2) <
                     std::tie(y.actor, y.counter, y.kind, y.detail, y.detail2);
            });
}

std::string to_json(const FaultLog& log) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < log.size(); ++i) {
    const FaultEvent& e = log[i];
    if (i > 0) out << ",";
    out << "\n  {\"kind\": \"" << kind_name(e.kind)
        << "\", \"actor\": " << e.actor << ", \"counter\": " << e.counter
        << ", \"detail\": " << e.detail << ", \"detail2\": " << e.detail2
        << "}";
  }
  out << (log.empty() ? "]" : "\n]");
  return out.str();
}

}  // namespace ajac::fault
