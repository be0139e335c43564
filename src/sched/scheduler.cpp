#include "sched/scheduler.hpp"

#include <limits>

#include "util/assert.hpp"

namespace dg::sched {

MultiBotScheduler::MultiBotScheduler(des::Simulator& sim, grid::DesktopGrid& grid,
                                     std::unique_ptr<BagSelectionPolicy> policy,
                                     std::unique_ptr<IndividualScheduler> individual,
                                     std::unique_ptr<ReplicationController> replication,
                                     std::pmr::memory_resource* mem)
    : sim_(sim), grid_(grid), policy_(std::move(policy)), individual_(std::move(individual)),
      replication_(std::move(replication)), index_(active_bots_, mem) {
  DG_ASSERT(policy_ != nullptr);
  DG_ASSERT(individual_ != nullptr);
  DG_ASSERT(replication_ != nullptr);
  index_.set_stats(&stats_);
}

int MultiBotScheduler::effective_threshold() const {
  if (policy_->unlimited_replication()) {
    // "Potentially unlimited": one replica per machine is the natural cap
    // (a busy machine can never receive a second replica anyway).
    return std::numeric_limits<int>::max() / 2;
  }
  return replication_->threshold();
}

void MultiBotScheduler::submit(BotState& bot) {
  DG_ASSERT_MSG(active_bots_.empty() || active_bots_.back()->arrival_time() <= bot.arrival_time(),
                "bags must be submitted in arrival order");
  active_bots_.push_back(bot);
  index_.register_bot(bot);
  policy_->on_bot_arrival(bot, sim_.now());
  trigger();
}

void MultiBotScheduler::trigger() {
  if (in_trigger_) return;
  in_trigger_ = true;
  ++stats_.triggers;
  DG_ASSERT_MSG(sink_ != nullptr, "MultiBotScheduler used without a DispatchSink");
  // Dispatching only removes machines from the free set (nothing frees up
  // mid-trigger), so repeatedly pulling the lowest-id available machine
  // visits exactly the machines the old full forward scan dispatched to.
  grid::MachineId m = grid_.first_available();
  while (m != grid::DesktopGrid::kNoMachine) {
    ++stats_.machines_examined;
    SchedulerContext ctx;
    ctx.now = sim_.now();
    ctx.bots = &active_bots_;
    ctx.index = &index_;
    ctx.individual = individual_.get();
    ctx.threshold = effective_threshold();
    index_.set_threshold(ctx.threshold);
    ++stats_.selects;
    TaskState* task = policy_->select(ctx);
    if (task == nullptr) break;  // nothing dispatchable anywhere
    DG_ASSERT(!task->completed());
    task->bot().note_dispatch(sim_.now());
    ++replicas_started_;
    sink_->start_replica(*task, grid_.machine(m));
    DG_ASSERT_MSG(grid_.machine(m).busy(), "engine must mark the machine busy");
    m = grid_.first_available();
  }
  in_trigger_ = false;
}

void MultiBotScheduler::notify_replica_started(TaskState& task) {
  task.bot().after_replica_started(task);
  policy_->on_task_transition(task, sim_.now());
}

void MultiBotScheduler::notify_replica_stopped(TaskState& task, StopReason reason) {
  BotState& bot = task.bot();
  bot.after_replica_stopped(task);
  if (reason == StopReason::kFailed) {
    ++replica_failures_;
    replication_->on_replica_failure();
  } else if (reason == StopReason::kWinner) {
    replication_->on_replica_success();
  }
  if (task.completed()) return;  // no resubmission or index updates needed
  if (reason == StopReason::kFailed && task.running_replicas() == 0) {
    // WQR-FT: automatic resubmission with priority (from the checkpoint);
    // WQR / WorkQueue: back of the bag's queue, from scratch.
    if (individual_->resubmission_priority()) {
      bot.push_resubmission(task);
    } else {
      bot.push_requeue(task);
    }
  }
  policy_->on_task_transition(task, sim_.now());
}

void MultiBotScheduler::notify_task_completed(TaskState& task) {
  BotState& bot = task.bot();
  bot.on_task_completed(task);
  policy_->on_task_transition(task, sim_.now());
  ++tasks_completed_;
  if (bot.completed()) {
    bot.note_completion(sim_.now());
    policy_->on_bot_completion(bot, sim_.now());
    // Detaches the bag before the completed task's sibling replicas are
    // stopped: those stops still mutate it but must not resurrect index
    // entries.
    index_.unregister_bot(bot);
    active_bots_.erase(bot);  // O(1): intrusive links
    ++bots_completed_;
    if (on_bot_completed_) on_bot_completed_(bot);
  }
}

}  // namespace dg::sched
