// Sequential discrete-event simulation kernel.
//
// The pending-event set is a cache-friendly 4-ary implicit heap
// (des/queue_policy.hpp) of 24-byte PODs ordered by (time, sequence) — ties
// break in scheduling order so runs are bitwise deterministic. Each entry
// names a slot in one flat table of {action, generation, next free} records
// recycled through an intrusive free list, so once the table has grown to a
// run's peak the hot path — schedule, fire, cancel — performs no heap
// allocation. The kernel is deliberately single-threaded; parallelism in
// dgsched lives one level up, across independent replications (see
// exp::ExperimentRunner).
#pragma once

#include <cstdint>
#include <vector>

#include "des/event.hpp"
#include "des/queue_policy.hpp"

namespace dg::des {

/// Deterministic single-threaded event loop.
///
/// Invariants: events fire in ascending (time, sequence) order; now() never
/// goes backwards; an action may schedule/cancel freely, including at the
/// current time (it runs after all already-queued same-time events).
/// Thread-safety: none — one Simulator per thread (each runner lane owns a
/// private Simulator in its sim::SimulationWorkspace).
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time. Starts at 0; advances only inside step(),
  /// run(), and run_until().
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `action` at absolute time `time`. Returns a handle that can
  /// cancel the event while pending.
  /// Preconditions: `time` is finite and >= now(); `action` is non-empty.
  EventHandle schedule_at(SimTime time, Action action);

  /// Schedules `action` after `delay` (>= 0) from now.
  EventHandle schedule_after(SimTime delay, Action action) {
    return schedule_at(now_ + delay, action);
  }

  /// Cancels the event `handle` names if it is still pending, in O(1) (the
  /// slot's generation moves on; the stale heap entry is skipped when it
  /// surfaces). Returns true if this call performed the cancellation: false
  /// if the event already ran or was cancelled, or the handle is empty.
  /// `handle` must come from this simulator; one from another simulator is
  /// bounds-checked but may name an unrelated event.
  bool cancel(EventHandle handle) noexcept;

  /// True while the event `handle` names is scheduled and neither cancelled
  /// nor executed. An event's own handle reads false while its action runs.
  [[nodiscard]] bool pending(EventHandle handle) const noexcept {
    return handle.slot < slots_.size() && slots_[handle.slot].generation == handle.generation;
  }

  /// Executes the next pending event. Returns false when no live event
  /// remains or the simulation was stopped.
  bool step();

  /// Runs until the event queue drains or stop() is called.
  void run();

  /// Runs all events with time <= horizon (>= now()), then advances the
  /// clock to horizon (if it is past the last executed event).
  void run_until(SimTime horizon);

  /// Stops the run/run_until loop after the current event returns.
  void stop() noexcept { stopped_ = true; }
  [[nodiscard]] bool stopped() const noexcept { return stopped_; }
  /// Re-arms a stopped simulator so run()/run_until() can continue.
  void clear_stop() noexcept { stopped_ = false; }

  /// Number of events executed so far (cancelled events are not counted).
  [[nodiscard]] std::uint64_t executed_events() const noexcept { return stats_.events_fired; }
  /// Number of events ever scheduled.
  [[nodiscard]] std::uint64_t scheduled_events() const noexcept { return next_sequence_; }
  /// Exact number of live pending events (cancelled events leave a stale
  /// queue entry but are excluded from this count).
  [[nodiscard]] std::size_t pending_events() const noexcept { return live_; }
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Kernel counters for this simulator (see KernelStats). Values are
  /// cumulative since construction or the last reset().
  [[nodiscard]] const KernelStats& stats() const noexcept { return stats_; }

  /// Returns the simulator to t = 0 with an empty queue while retaining the
  /// slot table and queue capacity — the reuse hook sim::SimulationWorkspace
  /// is built on. Every outstanding EventHandle turns stale; the free list is
  /// rebuilt in ascending slot order, the order a fresh simulator hands slots
  /// out, and sequence numbers restart at 0, so a (config, seed)-identical
  /// run after reset() is bit-identical to one on a fresh Simulator.
  void reset() noexcept;

 private:
  /// One event record. `generation` moves on every time the slot is retired
  /// (fired, cancelled or reset); a handle or heap entry holding an older
  /// generation is stale. Per-slot wrap-around needs 2^32 retirements of the
  /// same slot — unreachable in practice.
  struct Slot {
    Action action;
    std::uint32_t generation = 0;
    std::uint32_t next_free = EventHandle::kNullSlot;
  };

  /// Pushes the slot onto the free list, making its handles stale.
  void release(std::uint32_t slot) noexcept;
  /// Drops stale entries from the front; returns false when the queue empties.
  bool queue_skip_stale();

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = EventHandle::kNullSlot;
  std::size_t live_ = 0;
  /// Physical entry count includes stale entries — heap_peak is defined
  /// over it.
  FourAryHeapQueue queue_;
  KernelStats stats_;
  SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  bool stopped_ = false;
};

}  // namespace dg::des
