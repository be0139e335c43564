// MultiBotScheduler: the paper's two-step centralized scheduler.
//
// On every trigger (bag arrival, machine freed, machine repaired, replica
// failure) it runs the dispatch loop: while an up-and-idle machine exists,
// ask the bag-selection policy for the next task (step 1), which delegates
// the within-bag choice to the individual scheduler (step 2), and hand the
// (task, machine) pair to the execution engine via DispatchSink.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "des/simulator.hpp"
#include "grid/desktop_grid.hpp"
#include "sched/bot_state.hpp"
#include "sched/dispatch_index.hpp"
#include "sched/individual.hpp"
#include "sched/policy.hpp"
#include "sched/replication.hpp"
#include "sched/sched_stats.hpp"
#include "util/inline_function.hpp"

namespace dg::sched {

/// Where dispatch decisions go: implemented by sim::ExecutionEngine.
class DispatchSink {
 public:
  virtual ~DispatchSink() = default;
  virtual void start_replica(TaskState& task, grid::Machine& machine) = 0;
};

/// The paper's two-step centralized scheduler (see file comment).
///
/// Thread-safety: none — the scheduler lives entirely inside one
/// simulation's event loop (one per Simulator, one Simulator per thread).
/// Lifetime: `sim` and `grid` must outlive the scheduler; submitted
/// BotStates stay owned by the caller and must outlive the run.
class MultiBotScheduler {
 public:
  /// Takes ownership of the policy/individual/replication strategy objects.
  /// A DispatchSink must be attached via set_sink() before the first
  /// submit()/trigger() can dispatch anything. The dispatch index allocates
  /// from `mem` (default: global heap; see sim::SimulationWorkspace).
  MultiBotScheduler(des::Simulator& sim, grid::DesktopGrid& grid,
                    std::unique_ptr<BagSelectionPolicy> policy,
                    std::unique_ptr<IndividualScheduler> individual,
                    std::unique_ptr<ReplicationController> replication,
                    std::pmr::memory_resource* mem = std::pmr::get_default_resource());

  MultiBotScheduler(const MultiBotScheduler&) = delete;
  MultiBotScheduler& operator=(const MultiBotScheduler&) = delete;

  void set_sink(DispatchSink& sink) noexcept { sink_ = &sink; }
  /// Invoked when a bag's last task completes (Simulation records metrics).
  void set_bot_completed_callback(util::InlineFunction<void(BotState&)> callback) noexcept {
    on_bot_completed_ = callback;
  }

  /// Sizes the dispatch index for bag ids below `bags`, which may then be
  /// submitted in any id order (see DispatchIndex::reserve).
  void reserve_bags(std::size_t bags) { index_.reserve(bags); }

  /// Registers an arriving bag (caller keeps ownership) and dispatches.
  /// Precondition: `bot` was not submitted before and is incomplete.
  void submit(BotState& bot);

  /// Dispatch loop: while an up-and-idle machine exists and the policy
  /// yields a task, hand (task, machine) to the sink. Machines are pulled
  /// from the grid's free-machine index in id order (the same order the old
  /// full scan produced), so the loop's cost is proportional to the number
  /// of dispatches, not the grid size. Re-entrancy safe — calls arriving
  /// while a dispatch is in flight (e.g. from an engine notification)
  /// coalesce into the running loop instead of recursing.
  void trigger();

  // --- engine notifications (see sim/execution_engine.cpp for call order) ---

  /// After task.on_replica_started().
  void notify_replica_started(TaskState& task);

  enum class StopReason : std::uint8_t {
    kFailed,     // host machine failed
    kCancelled,  // sibling replica won
    kWinner,     // this replica completed the task
  };
  /// After task.on_replica_stopped().
  void notify_replica_stopped(TaskState& task, StopReason reason);

  /// After task.mark_completed(), BEFORE sibling replicas are stopped.
  void notify_task_completed(TaskState& task);

  /// `machine` came back up (or otherwise became available).
  void notify_capacity_change(grid::Machine& machine) {
    DG_ASSERT_MSG(machine.available(), "capacity change for an unavailable machine");
    trigger();
  }

  // --- queries ---

  [[nodiscard]] const ActiveBotList& active_bots() const noexcept { return active_bots_; }
  [[nodiscard]] const DispatchIndex& dispatch_index() const noexcept { return index_; }
  [[nodiscard]] const BagSelectionPolicy& policy() const noexcept { return *policy_; }
  [[nodiscard]] const IndividualScheduler& individual() const noexcept { return *individual_; }
  [[nodiscard]] const ReplicationController& replication() const noexcept {
    return *replication_;
  }
  /// Threshold in force for the next dispatch decision.
  [[nodiscard]] int effective_threshold() const;

  /// Dispatch-path cost counters (see sched/sched_stats.hpp).
  [[nodiscard]] const SchedStats& sched_stats() const noexcept { return stats_; }

  [[nodiscard]] std::uint64_t replicas_started() const noexcept { return replicas_started_; }
  [[nodiscard]] std::uint64_t tasks_completed() const noexcept { return tasks_completed_; }
  [[nodiscard]] std::uint64_t bots_completed() const noexcept { return bots_completed_; }
  [[nodiscard]] std::uint64_t replica_failures() const noexcept { return replica_failures_; }

 private:
  des::Simulator& sim_;
  grid::DesktopGrid& grid_;
  std::unique_ptr<BagSelectionPolicy> policy_;
  std::unique_ptr<IndividualScheduler> individual_;
  std::unique_ptr<ReplicationController> replication_;
  DispatchSink* sink_ = nullptr;
  util::InlineFunction<void(BotState&)> on_bot_completed_;

  ActiveBotList active_bots_;  // incomplete, arrival order
  DispatchIndex index_;        // eligibility sets over active_bots_
  bool in_trigger_ = false;
  SchedStats stats_;

  std::uint64_t replicas_started_ = 0;
  std::uint64_t tasks_completed_ = 0;
  std::uint64_t bots_completed_ = 0;
  std::uint64_t replica_failures_ = 0;
};

}  // namespace dg::sched
