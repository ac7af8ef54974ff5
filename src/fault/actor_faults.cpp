#include "ajac/fault/actor_faults.hpp"

#include "ajac/util/check.hpp"

namespace ajac::fault {

ActorSpecs resolve_actor(const FaultPlan& plan, index_t actor) {
  ActorSpecs specs;
  for (const auto& s : plan.stragglers) {
    if (s.actor == actor) specs.straggler = &s;
  }
  for (const auto& s : plan.stale_reads) {
    if (s.actor == actor || s.actor == -1) specs.stale = &s;
  }
  for (const auto& s : plan.crashes) {
    if (s.actor == actor) specs.crash = &s;
  }
  for (const auto& s : plan.bit_flips) {
    if (s.actor == actor || s.actor == -1) specs.bit_flips.push_back(&s);
  }
  for (const auto& s : plan.message_faults) {
    if (s.sender == actor || s.sender == -1) specs.messages.push_back(&s);
  }
  return specs;
}

ActorFaults::ActorFaults(const FaultPlan& plan, index_t actor)
    : clock_(plan.seed), actor_(actor), specs_(resolve_actor(plan, actor)) {}

IterationFaults ActorFaults::begin_iteration(index_t iter) {
  IterationFaults out;
  if (const StragglerSpec* s = specs_.straggler; s != nullptr) {
    const bool on = duty_active(s->period, s->duty, iter);
    if (on && !straggler_on_) {
      log_.push_back({FaultKind::kStragglerOn, actor_, iter, 0, 0});
    }
    straggler_on_ = on;
    if (on) {
      out.stall_us += s->extra_delay_us;
      stalled_us_ += s->extra_delay_us;
    }
  }
  if (const CrashSpec* s = specs_.crash;
      s != nullptr && !crashed_ && iter >= s->crash_iteration) {
    // A crash is an actor that stops participating for dead_seconds and
    // then resumes, optionally from the initial guess on its rows (lost
    // memory). Neighbours keep reading its last published values.
    crashed_ = true;
    log_.push_back({FaultKind::kCrash, actor_, iter, 0, 0});
    out.stall_us += s->dead_seconds * 1e6;
    stalled_us_ += s->dead_seconds * 1e6;
    out.reset_state = s->reset_state_on_recovery;
    log_.push_back({FaultKind::kRecover, actor_, iter, 0, 0});
  }
  if (const StaleReadSpec* s = specs_.stale; s != nullptr) {
    const bool on = duty_active(s->period, s->duty, iter);
    if (on && !stale_on_) {
      log_.push_back({FaultKind::kStaleWindowOn, actor_, iter, 0, 0});
      out.stale_entered = true;
    }
    stale_on_ = on;
    out.stale_active = on;
  }
  return out;
}

std::optional<RowFlip> ActorFaults::flip(index_t iter, index_t row,
                                         std::span<const index_t> cols) {
  const auto a = static_cast<std::uint64_t>(actor_);
  const auto it = static_cast<std::uint64_t>(iter);
  const auto r = static_cast<std::uint64_t>(row);
  for (const BitFlipSpec* s : specs_.bit_flips) {
    if (iter < s->first_iteration || iter >= s->last_iteration) continue;
    if (!clock_.bernoulli(s->probability, FaultClock::kBitFlipTrigger, a, it,
                          r)) {
      continue;
    }
    std::size_t off_diag = 0;
    for (const index_t j : cols) off_diag += (j != row) ? 1 : 0;
    if (off_diag == 0) continue;
    const std::uint64_t target =
        clock_.pick(off_diag, FaultClock::kBitFlipEntry, a, it, r);
    std::uint64_t seen = 0;
    std::size_t entry = 0;
    for (std::size_t p = 0; p < cols.size(); ++p) {
      if (cols[p] == row) continue;
      if (seen++ == target) {
        entry = p;
        break;
      }
    }
    const int bit =
        s->bit >= 0 ? s->bit
                    : static_cast<int>(
                          clock_.pick(52, FaultClock::kBitFlipBit, a, it, r));
    log_.push_back(
        {FaultKind::kBitFlip, actor_, iter, row, static_cast<index_t>(bit)});
    return RowFlip{entry, bit};
  }
  return std::nullopt;
}

bool ActorFaults::message_fault(FaultKind kind, std::uint64_t stream,
                                double MessageFaultSpec::*probability,
                                std::uint64_t edge, index_t receiver,
                                index_t k) {
  for (const MessageFaultSpec* s : specs_.messages) {
    if (s->receiver >= 0 && s->receiver != receiver) continue;
    if (clock_.bernoulli(s->*probability, stream, edge,
                         static_cast<std::uint64_t>(k))) {
      log_.push_back({kind, actor_, k, receiver, 0});
      return true;
    }
  }
  return false;
}

bool ActorFaults::drop_message(std::uint64_t edge, index_t receiver,
                               index_t k) {
  return message_fault(FaultKind::kMessageDrop, FaultClock::kMessageDrop,
                       &MessageFaultSpec::drop_probability, edge, receiver, k);
}

bool ActorFaults::duplicate_message(std::uint64_t edge, index_t receiver,
                                    index_t k) {
  return message_fault(FaultKind::kMessageDuplicate,
                       FaultClock::kMessageDuplicate,
                       &MessageFaultSpec::duplicate_probability, edge,
                       receiver, k);
}

void require_honoured(const FaultPlan& plan, const char* runtime,
                      HonouredFaults honours) {
  AJAC_CHECK_MSG(honours.bit_flips || plan.bit_flips.empty(),
                 runtime << " does not inject bit flips: only the "
                            "shared-memory kernels read matrix entries one "
                            "by one (use solve_shared)");
  AJAC_CHECK_MSG(honours.message_faults || plan.message_faults.empty(),
                 runtime << " exchanges no messages, so it cannot drop, "
                            "duplicate or reorder them (use solve_mesh or "
                            "solve_distributed)");
  if (honours.message_reorder) return;
  for (const MessageFaultSpec& s : plan.message_faults) {
    AJAC_CHECK_MSG(s.reorder_probability == 0.0,
                   runtime << " delivers each edge's messages in FIFO order, "
                              "so reordering is meaningless (use "
                              "solve_distributed for reorder scenarios)");
  }
}

}  // namespace ajac::fault
