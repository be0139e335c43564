// The DES kernel's pending-event queue.
//
// The simulator's pending-event set is a priority queue of 24-byte POD
// entries ordered by (time, sequence); the sequence tie-break makes runs
// bitwise deterministic. FourAryHeapQueue is a cache-friendly 4-ary implicit
// heap: O(log4 n) push/pop, two cache lines touched per level. At the
// paper's workload sizes the queue peaks at a few hundred entries.
//
// tests/test_queue_policy.cpp checks its pop order decision by decision
// against an independent reference ordered by queue_earlier.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "des/event.hpp"

namespace dg::des {

/// One priority-queue entry. Stale entries (slot generation moved on) are
/// skipped when they surface at the front — cancellation never touches the
/// queue structure.
struct QueueEntry {
  SimTime time;
  std::uint64_t sequence;  ///< Deterministic FIFO tie-break at equal times.
  std::uint32_t slot;
  std::uint32_t generation;
};

/// Strict weak order the kernel fires events in: ascending time, scheduling
/// order within a timestamp.
[[nodiscard]] constexpr bool queue_earlier(const QueueEntry& a, const QueueEntry& b) noexcept {
  if (a.time != b.time) return a.time < b.time;
  return a.sequence < b.sequence;
}

/// A 4-ary implicit min-heap of QueueEntry PODs. top()/pop() yield entries in
/// ascending (time, sequence) order; size() counts every pushed-not-yet-popped
/// entry, stale ones included (the kernel's heap_peak counter is defined over
/// this physical size); clear() retains capacity (workspace reuse).
class FourAryHeapQueue {
 public:
  void push(const QueueEntry& entry) {
    std::size_t hole = heap_.size();
    heap_.push_back(entry);
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (!queue_earlier(entry, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = entry;
  }

  [[nodiscard]] const QueueEntry& top() const noexcept { return heap_.front(); }

  void pop() {
    const QueueEntry last = heap_.back();
    heap_.pop_back();
    const std::size_t size = heap_.size();
    if (size == 0) return;
    // Sift the former last element down from the root, always descending into
    // the earliest of (up to) four children — two cache lines per level.
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first_child = hole * kArity + 1;
      if (first_child >= size) break;
      std::size_t best = first_child;
      const std::size_t end = std::min(first_child + kArity, size);
      for (std::size_t child = first_child + 1; child < end; ++child) {
        if (queue_earlier(heap_[child], heap_[best])) best = child;
      }
      if (!queue_earlier(heap_[best], last)) break;
      heap_[hole] = heap_[best];
      hole = best;
    }
    heap_[hole] = last;
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  void clear() noexcept { heap_.clear(); }

 private:
  static constexpr std::size_t kArity = 4;
  std::vector<QueueEntry> heap_;
};

}  // namespace dg::des
