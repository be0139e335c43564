// Runtime state of one BoT application: its per-bag queue in the scheduler.
//
// Maintains the dispatch structures the individual-bag schedulers draw from:
//   * an ordered cursor over never-started tasks (arrival order, or
//     descending-work order for the knowledge-based extension),
//   * a priority FIFO of failed tasks awaiting resubmission (WQR-FT),
//   * a plain re-queue for fault re-execution without priority (WQR/WorkQueue),
//   * replica-count buckets answering "least-replicated incomplete task below
//     the replication threshold": one bitmap per running-replica count over
//     the tasks' ranks in the bag's dispatch order, so the answer is the
//     first set bit of the smallest non-empty count.
// Per-pool counts of the tasks whose live entry sits in each pool make
// has_pending() and has_stale_queue_entries() O(1). All structures are
// deterministic (dispatch-order ranks, FIFO pools).
#pragma once

#include <climits>
#include <cstdint>
#include <deque>
#include <memory>
#include <memory_resource>
#include <vector>

#include "sched/task_state.hpp"
#include "util/assert.hpp"
#include "workload/bot.hpp"

namespace dg::sched {

class DispatchIndex;

/// Ordering used for the unstarted-task cursor and replication tie-breaks.
enum class TaskOrder : std::uint8_t {
  kArrival,         // task index order (knowledge-free; the paper's setting)
  kDescendingWork,  // longest task first (knowledge-based extension)
};

class BotState {
 public:
  /// All internal containers (task slab, queues, replica buckets) allocate
  /// from `mem`; pass a per-replication pool (sim::SimulationWorkspace) to
  /// recycle their memory across runs. The default is the global heap.
  explicit BotState(const workload::BotSpec& spec, TaskOrder order = TaskOrder::kArrival,
                    std::pmr::memory_resource* mem = std::pmr::get_default_resource());

  BotState(const BotState&) = delete;
  BotState& operator=(const BotState&) = delete;
  ~BotState();

  [[nodiscard]] workload::BotId id() const noexcept { return id_; }
  [[nodiscard]] double arrival_time() const noexcept { return arrival_time_; }
  [[nodiscard]] double granularity() const noexcept { return granularity_; }
  [[nodiscard]] std::size_t num_tasks() const noexcept { return tasks_.size(); }
  [[nodiscard]] TaskState& task(std::size_t i) { return tasks_[i]; }
  [[nodiscard]] const TaskState& task(std::size_t i) const { return tasks_[i]; }

  // --- pending pools ---
  //
  // The peeks are logically const: they only advance lazy cursors past
  // entries whose tasks already changed state (the answer is a function of
  // task states alone), so the containers are mutable and the methods const.

  /// Next never-started task in this bag's order, or nullptr.
  [[nodiscard]] TaskState* peek_unstarted() const;
  /// Oldest failed task awaiting priority resubmission (WQR-FT), or nullptr.
  [[nodiscard]] TaskState* peek_resubmission() const;
  /// Oldest task re-queued without priority (WQR / WorkQueue), or nullptr.
  [[nodiscard]] TaskState* peek_requeued() const;

  /// Queue a zero-replica incomplete task. A bag feeds one of the two pools
  /// only (the individual scheduler's resubmission_priority() decides which).
  void push_resubmission(TaskState& task);
  void push_requeue(TaskState& task);

  /// True if any pending (zero-replica, incomplete) task exists. Unlike the
  /// peeks this never pops queue entries: a stale entry whose task is merely
  /// running keeps its position and revalidates if the task fails again —
  /// the priority-resubmission order the probing pick path relies on.
  /// Amortized O(1): the pool counts, then the unstarted cursor.
  [[nodiscard]] bool has_pending() const;

  /// True if a resubmission/requeue pool is non-empty yet holds no currently
  /// dispatchable entry — every entry's task is running or completed. Such a
  /// bag is exactly one the positional policy scans used to probe (and
  /// thereby prune) on their way to the selected bag; the dispatch index
  /// tracks these so the probes can be replayed without a full scan. O(1).
  [[nodiscard]] bool has_stale_queue_entries() const noexcept;

  // --- replication candidates ---

  /// Incomplete task with >= 1 and < `threshold` running replicas, fewest
  /// replicas first (ties by the bag's TaskOrder). nullptr if none.
  [[nodiscard]] TaskState* least_replicated_below(int threshold) const noexcept;

  /// Smallest running-replica count among incomplete tasks with >= 1 replica,
  /// or INT_MAX when no task is running. O(1).
  [[nodiscard]] int min_replicated_count() const noexcept { return min_count_; }

  // --- bookkeeping driven by the scheduler ---

  /// Call after a replica of `task` started (its count already incremented).
  void after_replica_started(TaskState& task);
  /// Call after a replica of `task` stopped (count already decremented).
  /// No-op for completed tasks.
  void after_replica_stopped(TaskState& task);
  /// Call when `task` completes, BEFORE its sibling replicas are stopped
  /// (the bucket entry is keyed by the still-current replica count).
  void on_task_completed(TaskState& task);

  // --- bag-level status ---

  [[nodiscard]] std::size_t completed_tasks() const noexcept { return completed_count_; }
  [[nodiscard]] bool completed() const noexcept { return completed_count_ == tasks_.size(); }
  [[nodiscard]] int total_running() const noexcept { return total_running_; }
  [[nodiscard]] double total_work() const noexcept { return total_work_; }
  /// Work of the not-yet-completed tasks (knowledge-based policies only —
  /// a knowledge-free scheduler must not consult this).
  [[nodiscard]] double remaining_work() const noexcept { return total_work_ - completed_work_; }

  /// Time the first replica of any task started (the makespan origin).
  [[nodiscard]] bool ever_dispatched() const noexcept { return ever_dispatched_; }
  [[nodiscard]] double first_dispatch_time() const noexcept { return first_dispatch_time_; }
  [[nodiscard]] double completion_time() const noexcept { return completion_time_; }
  void note_dispatch(double now) noexcept {
    if (!ever_dispatched_) {
      ever_dispatched_ = true;
      first_dispatch_time_ = now;
    }
  }
  void note_completion(double now) noexcept { completion_time_ = now; }

  // --- turnaround decomposition (paper Section 3) ---

  [[nodiscard]] double turnaround() const noexcept { return completion_time_ - arrival_time_; }
  [[nodiscard]] double makespan() const noexcept {
    return completion_time_ - first_dispatch_time_;
  }
  [[nodiscard]] double waiting_time() const noexcept {
    return first_dispatch_time_ - arrival_time_;
  }

 private:
  /// One running-replica count's tasks: a bitmap over dispatch ranks, drawn
  /// from the memory resource while the count is non-empty and given back
  /// when it empties (FCFS-Excl drives counts towards the machine count).
  struct Bucket {
    std::uint64_t* bits = nullptr;  // words_ words; null while empty
    std::uint32_t population = 0;
    std::uint32_t first_word = 0;   // lowest non-zero word while non-empty
  };
  /// Which pool holds a task's live entry (TaskState::pool_).
  enum Pool : std::uint8_t { kNoPool, kResubmissionPool, kRequeuePool };

  /// Position in the bag's dispatch order: the index under kArrival, the
  /// rank_ table under kDescendingWork.
  [[nodiscard]] std::uint32_t rank(const TaskState& task) const noexcept {
    return rank_.empty() ? task.index() : rank_[task.index()];
  }
  void bucket_insert(TaskState& task, int count);
  void bucket_erase(TaskState& task, int count);
  void set_pool(TaskState& task, Pool pool) noexcept;

  workload::BotId id_;
  double arrival_time_;
  double granularity_;
  double total_work_ = 0.0;
  /// Allocator for every container below (see the constructor).
  std::pmr::memory_resource* mem_;
  /// Task slab: reserved once at construction and never resized, so the
  /// TaskState* handed out everywhere stay stable.
  std::pmr::vector<TaskState> tasks_;

  // Unstarted cursor: precomputed dispatch order, advanced lazily (mutable:
  // the const peeks skip already-consumed entries; see the peek docs). Also
  // maps a dispatch rank back to its task.
  std::pmr::vector<TaskState*> unstarted_order_;
  mutable std::size_t unstarted_cursor_ = 0;
  /// Task index -> dispatch rank; empty under kArrival (rank == index).
  std::pmr::vector<std::uint32_t> rank_;

  mutable std::pmr::deque<TaskState*> resubmission_queue_;
  mutable std::pmr::deque<TaskState*> requeue_;
  /// Tasks whose live entry sits in each pool: such a task has zero replicas
  /// and is incomplete, so its entry is valid and never popped, and a pool
  /// holds a dispatchable entry exactly when its count is non-zero.
  std::uint32_t live_resubmissions_ = 0;
  std::uint32_t live_requeues_ = 0;

  // Replica-count buckets: buckets_[c - 1] holds the incomplete tasks with c
  // running replicas (c >= 1); min_count_ is the smallest non-empty c.
  std::size_t words_;  // bitmap words per bucket
  std::pmr::vector<Bucket> buckets_;
  int min_count_ = INT_MAX;

  std::size_t completed_count_ = 0;
  double completed_work_ = 0.0;
  int total_running_ = 0;
  bool ever_dispatched_ = false;
  double first_dispatch_time_ = 0.0;
  double completion_time_ = 0.0;

  // The index this bag is registered in (set and cleared only by
  // DispatchIndex::register_bot / unregister_bot). Every mutator above (and
  // the push_* pools) refreshes the bag's memberships before returning —
  // wired here, not at the policy-hook level, because sibling-replica stops
  // of completed tasks bypass the policy hooks yet still change
  // total_running().
  friend class DispatchIndex;
  DispatchIndex* dispatch_index_ = nullptr;
  void refresh_dispatch_index();

  // Intrusive links for ActiveBotList (owned by the scheduler).
  friend class ActiveBotList;
  BotState* active_prev_ = nullptr;
  BotState* active_next_ = nullptr;
  bool in_active_list_ = false;
};

/// Intrusive doubly-linked list of the incomplete bags, in arrival order.
/// Replaces the scheduler's vector + O(B) std::find erase: membership is a
/// flag on the BotState, so completion removes a bag in O(1) while iteration
/// order (arrival order) is preserved — the invariant every FCFS-style
/// policy's determinism rests on.
class ActiveBotList {
 public:
  ActiveBotList() = default;
  ActiveBotList(const ActiveBotList&) = delete;
  ActiveBotList& operator=(const ActiveBotList&) = delete;

  void push_back(BotState& bot) {
    DG_ASSERT_MSG(!bot.in_active_list_, "bot already in active list");
    bot.in_active_list_ = true;
    bot.active_prev_ = tail_;
    bot.active_next_ = nullptr;
    (tail_ != nullptr ? tail_->active_next_ : head_) = &bot;
    tail_ = &bot;
    ++size_;
  }

  void erase(BotState& bot) {
    DG_ASSERT_MSG(bot.in_active_list_, "bot not in active list");
    (bot.active_prev_ != nullptr ? bot.active_prev_->active_next_ : head_) = bot.active_next_;
    (bot.active_next_ != nullptr ? bot.active_next_->active_prev_ : tail_) = bot.active_prev_;
    bot.active_prev_ = nullptr;
    bot.active_next_ = nullptr;
    bot.in_active_list_ = false;
    --size_;
  }

  [[nodiscard]] BotState* front() const noexcept { return head_; }
  [[nodiscard]] BotState* back() const noexcept { return tail_; }
  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] static bool contains(const BotState& bot) noexcept {
    return bot.in_active_list_;
  }

  /// Forward iterator yielding BotState* in arrival order.
  class iterator {
   public:
    explicit iterator(BotState* bot = nullptr) noexcept : bot_(bot) {}
    BotState* operator*() const noexcept { return bot_; }
    iterator& operator++() noexcept {
      bot_ = bot_->active_next_;
      return *this;
    }
    bool operator==(const iterator&) const = default;

   private:
    BotState* bot_;
  };

  [[nodiscard]] iterator begin() const noexcept { return iterator{head_}; }
  [[nodiscard]] iterator end() const noexcept { return iterator{}; }

 private:
  BotState* head_ = nullptr;
  BotState* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace dg::sched
