#pragma once
// The per-actor fault schedule every runtime shares.
//
// ActorFaults is built from (plan, actor). It looks up that actor's specs
// once and then answers the questions a runtime asks at its logical
// instants: what to do at the top of local iteration `iter`, whether row
// `row` of that iteration reads one entry corrupted, whether the k-th
// message on an edge is dropped or duplicated. Each answer is a duty-cycle
// window of the local iteration or a FaultClock hash of (seed, actor,
// counter[, row]), and each injection is appended to the actor's log with
// those coordinates. So one plan injects the same faults at the same
// (actor, iteration, row) instants in every runtime.
//
// The schedule knows nothing about the iterate, the initial guess or
// threads: the runtime applies the payload. The shared runtime does it
// through one adapter (src/runtime/solve_hooks.hpp: stall, own-row
// reset, frozen ghost snapshot); the mesh does it in its agent loop (stall,
// own-row reset, skipped drains). distsim uses only resolve_actor: its
// crashes, stragglers and message faults live in simulated time.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "ajac/fault/fault_plan.hpp"
#include "ajac/sparse/types.hpp"

namespace ajac::fault {

/// The specs of one plan that apply to one actor. The pointers point into
/// the plan, which must outlive them.
struct ActorSpecs {
  const StragglerSpec* straggler = nullptr;
  const StaleReadSpec* stale = nullptr;
  const CrashSpec* crash = nullptr;
  std::vector<const BitFlipSpec*> bit_flips;
  std::vector<const MessageFaultSpec*> messages;  ///< sender is this actor
};

/// Look up the specs naming `actor` (or every actor, -1). validate()
/// guarantees at most one straggler, stale-read and crash spec each.
[[nodiscard]] ActorSpecs resolve_actor(const FaultPlan& plan, index_t actor);

/// What a runtime must do at the top of a local iteration.
struct IterationFaults {
  double stall_us = 0.0;       ///< busy-wait: straggler + crash dead time
  bool reset_state = false;    ///< crash recovery lost memory: own rows = x0
  bool stale_entered = false;  ///< a stale window opened: freeze the ghosts
  bool stale_active = false;   ///< inside a stale window: read frozen ghosts
};

/// A transient single-bit corruption of one off-diagonal entry of a row.
struct RowFlip {
  std::size_t entry = 0;  ///< position among the row's CSR entries
  int bit = 0;
};

class ActorFaults {
 public:
  ActorFaults(const FaultPlan& plan, index_t actor);

  [[nodiscard]] bool has_stale_reads() const noexcept {
    return specs_.stale != nullptr;
  }
  [[nodiscard]] bool has_bit_flips() const noexcept {
    return !specs_.bit_flips.empty();
  }

  /// Straggler window, crash trigger and stale window, in that order, at
  /// the top of local iteration `iter`. Window entries, the crash and the
  /// recovery are logged.
  [[nodiscard]] IterationFaults begin_iteration(index_t iter);

  /// The bit flip of (iter, row), whose column indices are `cols`, or
  /// nothing. A row with no off-diagonal entry never flips.
  [[nodiscard]] std::optional<RowFlip> flip(index_t iter, index_t row,
                                            std::span<const index_t> cols);

  /// Message faults on the k-th message this actor sends on the directed
  /// edge keyed `edge` (distsim's directed_edge_key) to `receiver`.
  [[nodiscard]] bool drop_message(std::uint64_t edge, index_t receiver,
                                  index_t k);
  [[nodiscard]] bool duplicate_message(std::uint64_t edge, index_t receiver,
                                       index_t k);

  /// Cumulative injected stall (straggler delays + crash dead time), in
  /// microseconds.
  [[nodiscard]] double stalled_us() const noexcept { return stalled_us_; }

  /// Append-only: a reader may diff its size to find new injections.
  [[nodiscard]] const FaultLog& log() const noexcept { return log_; }
  [[nodiscard]] FaultLog take_log() { return std::move(log_); }

 private:
  [[nodiscard]] bool message_fault(FaultKind kind, std::uint64_t stream,
                                   double MessageFaultSpec::*probability,
                                   std::uint64_t edge, index_t receiver,
                                   index_t k);

  FaultClock clock_;
  index_t actor_;
  ActorSpecs specs_;
  bool straggler_on_ = false;
  bool stale_on_ = false;
  bool crashed_ = false;
  double stalled_us_ = 0.0;
  FaultLog log_;
};

/// The plan entries a runtime honours beyond the stragglers, stale-read
/// windows and crashes that every runtime injects.
struct HonouredFaults {
  bool bit_flips = false;
  bool message_faults = false;  ///< drop and duplicate
  bool message_reorder = false;
};

/// Reject a plan with an entry `runtime` would silently ignore: throws
/// std::logic_error naming the runtime and the fault kind.
void require_honoured(const FaultPlan& plan, const char* runtime,
                      HonouredFaults honours);

}  // namespace ajac::fault
