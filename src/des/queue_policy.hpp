// The DES kernel's pending-event queue.
//
// The simulator's pending-event set is a priority queue of 24-byte POD
// entries ordered by (time, sequence); the sequence tie-break makes runs
// bitwise deterministic. FourAryHeapQueue is a cache-friendly 4-ary implicit
// heap: O(log4 n) push/pop, two cache lines touched per level. At the
// paper's workload sizes the queue peaks at a few hundred entries.
//
// The order is one unsigned 128-bit compare of (bit pattern of time,
// sequence). For finite times >= +0.0 a double's bit pattern, read as an
// unsigned integer, sorts exactly as the double does, so the key order is
// the (time, sequence) order; Simulator::schedule_at guarantees that
// precondition (it turns -0.0 into +0.0). The compare has no data-dependent
// branch, which is what a sift decision on random event times needs.
//
// tests/test_queue_policy.cpp checks its pop order decision by decision
// against a reference that spells the order out on doubles.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "des/event.hpp"
#include "util/assert.hpp"

namespace dg::des {

/// One priority-queue entry. Stale entries (slot generation moved on) are
/// skipped when they surface at the front — cancellation never touches the
/// queue structure.
struct QueueEntry {
  SimTime time;            ///< Finite and >= +0.0 (never -0.0) once queued.
  std::uint64_t sequence;  ///< Deterministic FIFO tie-break at equal times.
  std::uint32_t slot;
  std::uint32_t generation;
};

/// The queue's sort key. `__extension__` keeps -Wpedantic quiet about the
/// GNU 128-bit type.
__extension__ typedef unsigned __int128 Key128;

/// (bit pattern of time, sequence) as one integer.
[[nodiscard]] constexpr Key128 queue_key(const QueueEntry& entry) noexcept {
  return (Key128{std::bit_cast<std::uint64_t>(entry.time)} << 64) | entry.sequence;
}

/// Strict weak order the kernel fires events in: ascending time, scheduling
/// order within a timestamp. Precondition: both times are finite and
/// >= +0.0 with no -0.0, where the bit-pattern order equals the double order.
[[nodiscard]] constexpr bool queue_earlier(const QueueEntry& a, const QueueEntry& b) noexcept {
  return queue_key(a) < queue_key(b);
}

/// A 4-ary implicit min-heap of QueueEntry PODs. top()/pop() yield entries in
/// ascending (time, sequence) order; size() counts every pushed-not-yet-popped
/// entry, stale ones included (the kernel's heap_peak counter is defined over
/// this physical size); clear() retains capacity (workspace reuse).
class FourAryHeapQueue {
 public:
  void push(const QueueEntry& entry) {
    DG_ASSERT(!std::signbit(entry.time));
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
      if (first_child + kArity <= size) {
        // A full group: a branch-free tournament, two pairs then their
        // winners. Keys are unique, so any correct min-selection picks the
        // same child.
        const std::size_t a =
            first_child + queue_earlier(heap_[first_child + 1], heap_[first_child]);
        const std::size_t b =
            first_child + 2 + queue_earlier(heap_[first_child + 3], heap_[first_child + 2]);
        best = queue_earlier(heap_[b], heap_[a]) ? b : a;
      } else {
        for (std::size_t child = first_child + 1; child < size; ++child) {
          if (queue_earlier(heap_[child], heap_[best])) best = child;
        }
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
