// Event actions, handles and counters for the DES kernel.
//
// An event's action is a des::Action: a function pointer plus two words of
// inline closure storage (util::InlineFunction), so scheduling never
// allocates and a closure that would not fit does not compile. The Simulator
// keeps each pending action in one slot of a flat table; a handle is the
// (slot, generation) pair it was issued, and the slot's generation moves on
// whenever its event fires, is cancelled, or the simulator is reset, which
// makes every older handle stale in O(1).
#pragma once

#include <cstdint>

#include "util/inline_function.hpp"

namespace dg::des {

/// Simulation time in seconds since simulation start.
using SimTime = double;

/// An event's action. Captures at most two words (see util/inline_function.hpp).
using Action = util::InlineFunction<void()>;

/// Kernel counters for one Simulator instance. Cheap enough to maintain
/// unconditionally; exposed via Simulator::stats() and threaded into
/// sim::SimulationResult so perf harnesses and observers can read them.
struct KernelStats {
  std::uint64_t events_scheduled = 0;  ///< schedule_at/schedule_after calls.
  std::uint64_t events_fired = 0;      ///< Events whose action was executed.
  std::uint64_t events_cancelled = 0;  ///< Successful Simulator::cancel calls.
  std::uint64_t heap_peak = 0;         ///< Max simultaneous entries in the event heap.

  friend bool operator==(const KernelStats&, const KernelStats&) = default;
};

/// Names a scheduled event: its slot in the issuing Simulator's table and
/// the slot's generation when it was scheduled. Read it only through that
/// Simulator's cancel() or pending(); a default handle names no event.
struct EventHandle {
  static constexpr std::uint32_t kNullSlot = 0xffffffffu;

  std::uint32_t slot = kNullSlot;
  std::uint32_t generation = 0;
};

}  // namespace dg::des
