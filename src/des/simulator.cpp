#include "des/simulator.hpp"

#include <cmath>
#include <utility>

#include "util/assert.hpp"

namespace dg::des {

EventHandle Simulator::schedule_at(SimTime time, std::function<void()> action) {
  DG_ASSERT_MSG(std::isfinite(time), "event time must be finite");
  DG_ASSERT_MSG(time >= now_, "cannot schedule an event in the past");
  DG_ASSERT(action != nullptr);
  const std::uint32_t slot = arena_->acquire(time, std::move(action));
  const std::uint32_t generation = arena_->generation(slot);
  queue_.push(QueueEntry{time, next_sequence_++, slot, generation});
  KernelStats& stats = arena_->stats_mut();
  ++stats.events_scheduled;
  if (queue_.size() > stats.heap_peak) stats.heap_peak = queue_.size();
  return EventHandle{arena_, slot, generation};
}

bool Simulator::queue_skip_stale() {
  while (!queue_.empty()) {
    const QueueEntry& entry = queue_.top();
    if (arena_->is_current(entry.slot, entry.generation)) return true;
    queue_.pop();
  }
  return false;
}

bool Simulator::step() {
  if (stopped_) return false;
  if (!queue_skip_stale()) return false;
  const QueueEntry entry = queue_.top();
  queue_.pop();
  DG_ASSERT(entry.time >= now_);
  now_ = entry.time;
  ++arena_->stats_mut().events_fired;
  // Retiring before invoking makes the action's own handle read !pending().
  std::function<void()> action = arena_->retire_and_take(entry.slot);
  action();
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(SimTime horizon) {
  DG_ASSERT(horizon >= now_);
  while (!stopped_ && queue_skip_stale()) {
    if (queue_.top().time > horizon) break;
    step();
  }
  if (!stopped_ && now_ < horizon) now_ = horizon;
}

}  // namespace dg::des
