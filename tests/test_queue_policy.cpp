// The DES event queue: FourAryHeapQueue pop order, FIFO tie-breaks, and a
// decision-by-decision check against an independent reference ordered by
// queue_earlier. The full-simulation golden fingerprints live in
// test_kernel_equivalence.cpp; these tests hit the queue directly.
#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <vector>

#include "des/queue_policy.hpp"
#include "des/simulator.hpp"

namespace dg::des {
namespace {

QueueEntry entry_at(double time, std::uint64_t sequence) {
  return QueueEntry{time, sequence, static_cast<std::uint32_t>(sequence), 0};
}

/// Drains `queue` and returns the popped (time, sequence) order.
std::vector<std::pair<double, std::uint64_t>> drain(FourAryHeapQueue& queue) {
  std::vector<std::pair<double, std::uint64_t>> popped;
  while (!queue.empty()) {
    const QueueEntry& top = queue.top();
    popped.emplace_back(top.time, top.sequence);
    queue.pop();
  }
  return popped;
}

/// The oracle: std::priority_queue is a max-heap, so order it by "later".
struct Later {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const { return queue_earlier(b, a); }
};
using ReferenceQueue = std::priority_queue<QueueEntry, std::vector<QueueEntry>, Later>;

TEST(FourAryHeapQueue, PopsInTimeOrder) {
  FourAryHeapQueue queue;
  std::uint64_t seq = 0;
  for (double t : {30.0, 10.0, 20.0, 5.0, 25.0}) queue.push(entry_at(t, seq++));
  const auto popped = drain(queue);
  ASSERT_EQ(popped.size(), 5u);
  for (std::size_t i = 1; i < popped.size(); ++i) {
    EXPECT_LE(popped[i - 1].first, popped[i].first);
  }
  EXPECT_EQ(popped.front().first, 5.0);
  EXPECT_EQ(popped.back().first, 30.0);
}

TEST(FourAryHeapQueue, EqualTimesPopInSchedulingOrder) {
  FourAryHeapQueue queue;
  for (std::uint64_t s = 0; s < 100; ++s) queue.push(entry_at(42.0, s));
  const auto popped = drain(queue);
  ASSERT_EQ(popped.size(), 100u);
  for (std::uint64_t s = 0; s < 100; ++s) EXPECT_EQ(popped[s].second, s);
}

TEST(FourAryHeapQueue, SizeCountsAllEntriesAndClearRetainsNothing) {
  FourAryHeapQueue queue;
  for (std::uint64_t s = 0; s < 10; ++s) queue.push(entry_at(double(s), s));
  EXPECT_EQ(queue.size(), 10u);
  queue.pop();
  EXPECT_EQ(queue.size(), 9u);
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  // Reusable after clear().
  queue.push(entry_at(1.0, 100));
  EXPECT_EQ(queue.top().sequence, 100u);
}

/// Interleaved pushes and pops through the heap and the reference with the
/// same input must pop the exact same (time, sequence) order — the
/// bitwise-determinism contract checked at the data-structure level. The
/// hold pattern (pop one, push one near the popped time) is the kernel's
/// steady state; a deep prefill and far outliers vary the heap depth.
TEST(QueueBackendEquivalence, RandomizedHoldPatternPopsIdentically) {
  FourAryHeapQueue heap;
  ReferenceQueue reference;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;  // splitmix-style mixer
  auto next_u64 = [&state] {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };

  std::uint64_t seq = 0;
  double now = 0.0;
  auto push_both = [&](double time) {
    const QueueEntry entry = entry_at(time, seq++);
    heap.push(entry);
    reference.push(entry);
  };
  auto pop_both = [&] {
    ASSERT_FALSE(heap.empty());
    ASSERT_FALSE(reference.empty());
    ASSERT_EQ(heap.size(), reference.size());
    const QueueEntry& a = heap.top();
    const QueueEntry& b = reference.top();
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.sequence, b.sequence);
    now = a.time;
    heap.pop();
    reference.pop();
  };

  // Mixed near-future and far-future times, including exact duplicates.
  for (int i = 0; i < 6000; ++i) {
    const double offset = static_cast<double>(next_u64() % 100000) / 10.0;
    push_both(now + offset);
  }
  // Steady-state hold: pop one, usually push a successor near the popped
  // time, occasionally a far outlier, occasionally nothing (drain).
  for (int i = 0; i < 30000; ++i) {
    if (heap.empty()) break;
    pop_both();
    const std::uint64_t roll = next_u64() % 10;
    if (roll < 7) {
      push_both(now + static_cast<double>(next_u64() % 1000) / 10.0);
    } else if (roll == 7) {
      push_both(now + 1e6 + static_cast<double>(next_u64() % 100000));
    }
  }
  // Drain the rest in lockstep.
  while (!heap.empty()) pop_both();
  EXPECT_TRUE(reference.empty());
}

TEST(QueueBackendEquivalence, AllEqualTimesThroughSpillAndLadder) {
  // Thousands of entries at one timestamp: every sift decision falls to the
  // sequence tie-break, so the heap must drain in exact push order — the
  // same order as a sorted drain of the input.
  FourAryHeapQueue heap;
  std::vector<std::pair<double, std::uint64_t>> want;
  for (std::uint64_t s = 0; s < 5000; ++s) {
    heap.push(entry_at(7.0, s));
    want.emplace_back(7.0, s);
  }
  EXPECT_EQ(drain(heap), want);
}

TEST(Simulator, CancelledEntriesAreSkippedAsStale) {
  Simulator sim;
  int fired = 0;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 200; ++i) {
    handles.push_back(sim.schedule_at(static_cast<double>(i), [&fired] { ++fired; }));
  }
  for (std::size_t i = 0; i < handles.size(); i += 2) EXPECT_TRUE(handles[i].cancel());
  sim.run();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(sim.executed_events(), 100u);
  EXPECT_TRUE(sim.empty());
}

}  // namespace
}  // namespace dg::des
