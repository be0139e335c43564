// The five knowledge-free bag-selection policies from the paper, plus the
// uniform-random baseline of Cirne et al. that RR generalizes.
#pragma once

#include <cstdint>
#include <map>
#include <memory_resource>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "rng/random_stream.hpp"
#include "sched/policy.hpp"

namespace dg::sched {

/// FCFS-Excl: the whole grid is exclusively allocated to the oldest
/// incomplete bag; replication is unbounded, so once the bag has no pending
/// tasks every freed machine runs yet another replica of a running task.
class FcfsExclPolicy final : public BagSelectionPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "FCFS-Excl"; }
  [[nodiscard]] bool unlimited_replication() const override { return true; }
  [[nodiscard]] TaskState* select(SchedulerContext& ctx) override;
};

/// FCFS-Share: bags are served strictly in arrival order, each with the full
/// WQR-FT order (resubmissions, then unstarted tasks, then replication up to
/// the normal threshold); a machine reaches the next bag only when every
/// older bag has no use for it. The paper's "pending tasks" are the tasks
/// still to be completed (Section 3.1), so unlike FCFS-Excl the grid is not
/// exclusively allocated — threshold-capped older bags overflow to younger
/// ones — but a failed task of an older bag always beats younger bags.
class FcfsSharePolicy final : public BagSelectionPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "FCFS-Share"; }
  [[nodiscard]] TaskState* select(SchedulerContext& ctx) override;
};

/// RR: fixed circular sweep over the per-bag queues; equivalent to choosing
/// among bags with equal probability in the long run.
class RoundRobinPolicy : public BagSelectionPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "RR"; }
  [[nodiscard]] TaskState* select(SchedulerContext& ctx) override;

 protected:
  /// One circular scan starting after the last served bag.
  [[nodiscard]] TaskState* round_robin_pick(SchedulerContext& ctx);

 private:
  /// Id of the bag served last; the next sweep starts after it.
  std::uint64_t cursor_ = ~0ULL;
};

/// RR-NRF: bags with no running task instance are served first (in arrival
/// order, without advancing the circular cursor); once every bag has at
/// least one running replica the normal RR sweep resumes.
class RoundRobinNrfPolicy final : public RoundRobinPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "RR-NRF"; }
  [[nodiscard]] TaskState* select(SchedulerContext& ctx) override;
};

/// LongIdle: prefer the bag hosting the task with the largest accumulated
/// waiting time (total time with zero running replicas). Maintains two lazy
/// *global* max-heaps over all bags, so selection is O(log) amortized
/// instead of a per-select sweep + sort over every active bag:
///   * never-started tasks all share the key -arrival_time (one sentinel
///     entry per bag covers them);
///   * an idle task's waiting time is frozen_idle + (now - idle_since); the
///     now-independent key frozen_idle - idle_since is stable while idle;
///   * a running task's waiting time is its frozen_idle, stable while it
///     runs.
/// The bag with the largest waiting time is the bag of the largest valid
/// entry across the two heaps; ties resolve to the older bag (smaller bag
/// id, equal to arrival order). Stale entries are discarded on inspection
/// (keys strictly decrease across idle periods, so for any task the stale
/// entries surface before the live one); entries of completed bags are
/// recognized by id against `registered_` before any pointer is touched.
class LongIdlePolicy final : public BagSelectionPolicy {
 public:
  /// Per-bag index nodes, heap storage and the ranking buffer allocate from
  /// `mem`.
  explicit LongIdlePolicy(std::pmr::memory_resource* mem = std::pmr::get_default_resource())
      : bags_(mem), ranked_(mem) {}
  [[nodiscard]] std::string name() const override { return "LongIdle"; }
  [[nodiscard]] TaskState* select(SchedulerContext& ctx) override;
  void on_bot_arrival(BotState& bot, double now) override;
  void on_bot_completion(BotState& bot, double now) override;
  void on_task_transition(TaskState& task, double now) override;

 private:
  struct Entry {
    double key = 0.0;          // now-independent ordering key
    TaskState* task = nullptr; // nullptr = "some never-started task" sentinel
    bool operator<(const Entry& other) const noexcept {
      if (key != other.key) return key < other.key;
      // Deterministic tie-break: older task first (max-heap pops it first).
      const auto a = task != nullptr ? task->index() : ~workload::TaskIndex{0};
      const auto b = other.task != nullptr ? other.task->index() : ~workload::TaskIndex{0};
      return a < b;
    }
  };
  // Per-bag lazy-deletion heaps, NOT one global heap: a bag's priority is
  // the max over its own entries, so the per-bag top is found by popping at
  // most the entries invalidated since the last probe (amortized O(1) —
  // every pop is paid by an on_task_transition push). A single global heap
  // would have to dig past every entry of each threshold-capped bag — and
  // past *all* live entries on the terminating null select of a trigger —
  // re-pushing them afterwards, which measured ~9x slower on the scale
  // suite. The O(B) ranked scan per select is cheap: B is active bags,
  // orders of magnitude below the task-entry count.
  using EntryHeap = std::priority_queue<Entry, std::pmr::vector<Entry>>;
  struct BagIndex {
    // Allocator-aware so std::pmr::map propagates its resource into the
    // heaps via uses-allocator construction (operator[] below).
    using allocator_type = std::pmr::polymorphic_allocator<Entry>;
    BagIndex() = default;
    explicit BagIndex(const allocator_type& alloc) : idle(alloc), frozen(alloc) {}
    BagIndex(BagIndex&& other, const allocator_type& alloc)
        : bot(other.bot), idle(std::move(other.idle), alloc), frozen(std::move(other.frozen), alloc) {}

    BotState* bot = nullptr;
    // Tasks currently idle: key = frozen_idle - idle_since.
    EntryHeap idle;
    // Tasks currently running (incomplete): key = frozen_idle.
    EntryHeap frozen;
  };

  /// Largest waiting time over the bag's incomplete tasks at `now`,
  /// -infinity when the bag has no incomplete task.
  [[nodiscard]] double bag_priority(BagIndex& index, double now);

  /// Active bags keyed by id; ordered so iteration is arrival order (ids are
  /// assigned in arrival order), which select's tie-break depends on. The
  /// policy never consults ctx.bots / ctx.index — this map is authoritative.
  std::pmr::map<workload::BotId, BagIndex> bags_;
  /// select()'s (priority, bag) ranking, kept so its capacity is reused.
  std::pmr::vector<std::pair<double, BotState*>> ranked_;
};

/// PendingFirst (PF-RR): our answer to the paper's closing question — a
/// single knowledge-free strategy for all granularities. Never-started (and
/// failed) tasks are served strictly in bag-arrival order, exactly like the
/// small-granularity winners; but *replication* only begins once no bag has
/// pending work, and then spreads round-robin like the large-granularity
/// winners. The policy therefore degenerates to FCFS-Share when bags are
/// wide (pending always available) and to RR's machine-spreading when bags
/// are narrow (replication dominates).
class PendingFirstPolicy final : public BagSelectionPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "PF-RR"; }
  [[nodiscard]] TaskState* select(SchedulerContext& ctx) override;

 private:
  std::uint64_t replication_cursor_ = ~0ULL;
};

/// Shortest Bag First: a *knowledge-based* baseline — assumes the remaining
/// work of every bag is known and always serves the bag closest to
/// completion (bag-level SJF, which minimizes mean turnaround in the
/// single-server idealization). Used to quantify how much the knowledge-free
/// policies give up by not knowing task execution times.
class ShortestBagFirstPolicy final : public BagSelectionPolicy {
 public:
  /// Per-bag index nodes allocate from `mem`.
  explicit ShortestBagFirstPolicy(
      std::pmr::memory_resource* mem = std::pmr::get_default_resource())
      : order_(mem), keys_(mem) {}
  [[nodiscard]] std::string name() const override { return "SJF-Bag"; }
  [[nodiscard]] TaskState* select(SchedulerContext& ctx) override;
  void on_bot_arrival(BotState& bot, double now) override;
  void on_bot_completion(BotState& bot, double now) override;
  void on_task_transition(TaskState& task, double now) override;

 private:
  // Active bags ordered by (remaining work asc, bag id asc) — the same order
  // the per-select stable_sort used to produce. remaining_work only changes
  // at task completion, so on_task_transition re-keys at most one bag.
  std::pmr::map<std::pair<double, workload::BotId>, BotState*> order_;
  /// Each bag's current key in `order_` (the erase handle).
  std::pmr::unordered_map<workload::BotId, double> keys_;
};

/// Random: uniform choice among bags with dispatchable work (the naive
/// baseline from the literature; statistically equivalent to RR).
class RandomPolicy final : public BagSelectionPolicy {
 public:
  /// The candidate buffer allocates from `mem`.
  explicit RandomPolicy(std::uint64_t seed,
                        std::pmr::memory_resource* mem = std::pmr::get_default_resource())
      : stream_(rng::RandomStream::derive(seed, "policy.random")), dispatchable_(mem) {}
  [[nodiscard]] std::string name() const override { return "Random"; }
  [[nodiscard]] TaskState* select(SchedulerContext& ctx) override;

 private:
  rng::RandomStream stream_;
  /// select()'s dispatchable bags, kept so its capacity is reused.
  std::pmr::vector<BotState*> dispatchable_;
};

}  // namespace dg::sched
