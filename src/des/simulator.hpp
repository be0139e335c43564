// Sequential discrete-event simulation kernel.
//
// The pending-event set is a cache-friendly 4-ary implicit heap
// (des/queue_policy.hpp) of 24-byte PODs ordered by (time, sequence) — ties
// break in scheduling order so runs are bitwise deterministic — referencing
// recycled slots in a slab arena (des/event.hpp), so the steady-state hot
// path — schedule, fire, cancel — performs no heap allocation. The kernel is
// deliberately single-threaded; parallelism in dgsched lives one level up,
// across independent replications (see exp::ExperimentRunner).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "des/event.hpp"
#include "des/queue_policy.hpp"

namespace dg::des {

/// Deterministic single-threaded event loop.
///
/// Invariants: events fire in ascending (time, sequence) order; now() never
/// goes backwards; an action may schedule/cancel freely, including at the
/// current time (it runs after all already-queued same-time events).
/// Thread-safety: none — one Simulator per thread (replications each own a
/// private Simulator; see util::ThreadPool).
class Simulator {
 public:
  Simulator() : arena_(std::make_shared<detail::EventArena>()) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time. Starts at 0; advances only inside step(),
  /// run(), and run_until().
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `action` at absolute time `time`. Returns a handle that can
  /// cancel the event while pending.
  /// Preconditions: `time` is finite and >= now(); `action` is non-empty.
  EventHandle schedule_at(SimTime time, std::function<void()> action);

  /// Schedules `action` after `delay` (>= 0) from now.
  EventHandle schedule_after(SimTime delay, std::function<void()> action) {
    return schedule_at(now_ + delay, std::move(action));
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
  [[nodiscard]] std::uint64_t executed_events() const noexcept {
    return arena_->stats().events_fired;
  }
  /// Number of events ever scheduled.
  [[nodiscard]] std::uint64_t scheduled_events() const noexcept { return next_sequence_; }
  /// Exact number of live pending events (cancelled events leave a stale
  /// queue entry but are excluded from this count).
  [[nodiscard]] std::size_t pending_events() const noexcept { return arena_->live(); }
  [[nodiscard]] bool empty() const noexcept { return arena_->live() == 0; }

  /// Kernel counters for this simulator (see KernelStats). Values are
  /// cumulative since construction or the last reset().
  [[nodiscard]] const KernelStats& stats() const noexcept { return arena_->stats(); }

  /// Returns the simulator to t = 0 with an empty queue while retaining the
  /// arena slabs and queue capacity — the reuse hook sim::SimulationWorkspace
  /// is built on. Every outstanding EventHandle turns stale (pending() ==
  /// false, cancel() == false); the next run schedules into recycled slots
  /// and sequence numbers restart at 0, so a (config, seed)-identical run
  /// after reset() is bit-identical to one on a fresh Simulator.
  void reset() noexcept {
    arena_->reset();
    queue_.clear();
    now_ = 0.0;
    next_sequence_ = 0;
    stopped_ = false;
  }

 private:
  /// Drops stale entries from the front; returns false when the queue empties.
  bool queue_skip_stale();

  std::shared_ptr<detail::EventArena> arena_;
  /// Physical entry count includes stale entries — heap_peak is defined
  /// over it.
  FourAryHeapQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  bool stopped_ = false;
};

}  // namespace dg::des
