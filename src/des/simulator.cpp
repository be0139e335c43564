#include "des/simulator.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace dg::des {

EventHandle Simulator::schedule_at(SimTime time, Action action) {
  DG_ASSERT_MSG(std::isfinite(time), "event time must be finite");
  DG_ASSERT_MSG(time >= now_, "cannot schedule an event in the past");
  DG_ASSERT(action);
  // -0.0 + 0.0 is +0.0: the queue orders times by bit pattern, where -0.0
  // would sort after every positive time (des/queue_policy.hpp).
  time += 0.0;
  std::uint32_t slot = free_head_;
  if (slot == EventHandle::kNullSlot) {
    DG_ASSERT_MSG(slots_.size() < EventHandle::kNullSlot, "event slot table exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    free_head_ = slots_[slot].next_free;
  }
  slots_[slot].action = action;
  ++live_;
  const std::uint32_t generation = slots_[slot].generation;
  queue_.push(QueueEntry{time, next_sequence_++, slot, generation});
  ++stats_.events_scheduled;
  if (queue_.size() > stats_.heap_peak) stats_.heap_peak = queue_.size();
  return EventHandle{slot, generation};
}

bool Simulator::cancel(EventHandle handle) noexcept {
  if (!pending(handle)) return false;
  release(handle.slot);
  ++stats_.events_cancelled;
  return true;
}

void Simulator::release(std::uint32_t slot) noexcept {
  Slot& record = slots_[slot];
  ++record.generation;
  record.next_free = free_head_;
  free_head_ = slot;
  DG_ASSERT(live_ > 0);
  --live_;
}

void Simulator::reset() noexcept {
  free_head_ = EventHandle::kNullSlot;
  for (std::uint32_t slot = static_cast<std::uint32_t>(slots_.size()); slot-- > 0;) {
    ++slots_[slot].generation;
    slots_[slot].next_free = free_head_;
    free_head_ = slot;
  }
  live_ = 0;
  queue_.clear();
  stats_ = KernelStats{};
  now_ = 0.0;
  next_sequence_ = 0;
  stopped_ = false;
}

bool Simulator::queue_skip_stale() {
  while (!queue_.empty()) {
    const QueueEntry& entry = queue_.top();
    if (slots_[entry.slot].generation == entry.generation) return true;
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
  ++stats_.events_fired;
  // Copy the action out first: it may schedule, which can grow slots_.
  // Retiring before invoking makes the action's own handle read !pending().
  const Action action = slots_[entry.slot].action;
  release(entry.slot);
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
