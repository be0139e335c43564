// Runtime state of one task of a running BoT.
//
// Tracks replica count, checkpointed progress, completion, resubmission
// status, and the accumulated "waiting time" (total time with zero running
// replicas) that drives the LongIdle policy. Mutations are called by the
// execution engine / scheduler in a fixed order; see sim/execution_engine.cpp.
#pragma once

#include <cstdint>

#include "util/assert.hpp"
#include "workload/bot.hpp"

namespace dg::sched {

class BotState;

class TaskState {
 public:
  /// Ends a replica chain; above every machine id (== DesktopGrid::kNoMachine).
  static constexpr std::uint32_t kNoReplicaHost = ~std::uint32_t{0};

  TaskState(BotState& bot, workload::TaskIndex index, double work, double arrival_time)
      : bot_(&bot), index_(index), work_(work), idle_since_(arrival_time) {
    DG_ASSERT(work > 0.0);
  }

  [[nodiscard]] BotState& bot() const noexcept { return *bot_; }
  [[nodiscard]] workload::TaskIndex index() const noexcept { return index_; }
  /// Total work (seconds on a P = 1 reference machine).
  [[nodiscard]] double work() const noexcept { return work_; }

  // --- replica accounting (engine-driven) ---

  [[nodiscard]] int running_replicas() const noexcept { return running_; }
  [[nodiscard]] bool ever_started() const noexcept { return ever_started_; }
  [[nodiscard]] bool completed() const noexcept { return completed_; }
  [[nodiscard]] double completion_time() const noexcept { return completion_time_; }

  /// A replica of this task began executing at `now`.
  void on_replica_started(double now) noexcept {
    DG_ASSERT(!completed_);
    if (running_ == 0) idle_accum_ += now - idle_since_;
    ++running_;
    ever_started_ = true;
    needs_resubmission_ = false;
  }

  /// A replica stopped (failed, was cancelled, or won). Idle accounting only
  /// resumes for incomplete tasks.
  void on_replica_stopped(double now) noexcept {
    DG_ASSERT(running_ > 0);
    --running_;
    if (running_ == 0 && !completed_) idle_since_ = now;
  }

  void mark_completed(double now) noexcept {
    DG_ASSERT(!completed_);
    completed_ = true;
    completion_time_ = now;
    needs_resubmission_ = false;
  }

  /// Lowest id of the machines running a replica of this task, or
  /// kNoReplicaHost. sim::ExecutionEngine owns the value: it links the other
  /// hosts from this one in ascending machine id, so finishing a task visits
  /// only its own replicas.
  [[nodiscard]] std::uint32_t first_replica_host() const noexcept { return first_replica_host_; }
  void set_first_replica_host(std::uint32_t machine) noexcept { first_replica_host_ = machine; }

  // --- checkpoint state (shared by all replicas of the task) ---

  [[nodiscard]] double checkpointed_work() const noexcept { return checkpointed_work_; }

  /// Commits a checkpoint; progress is monotone and bounded by work().
  void commit_checkpoint(double progress) noexcept {
    DG_ASSERT(progress >= 0.0);
    DG_ASSERT_MSG(progress <= work_ + 1e-9, "checkpoint beyond task work");
    if (progress > checkpointed_work_) checkpointed_work_ = progress;
  }

  /// Wipes the committed checkpoint — the *only* sanctioned regression,
  /// driven by a checkpoint-server crash that loses stored data. The next
  /// dispatched replica recomputes from scratch.
  void invalidate_checkpoint() noexcept { checkpointed_work_ = 0.0; }

  // --- resubmission (WQR-FT fault handling) ---

  [[nodiscard]] bool needs_resubmission() const noexcept { return needs_resubmission_; }
  void set_needs_resubmission(bool value) noexcept { needs_resubmission_ = value; }

  // --- waiting-time accounting (LongIdle) ---

  /// Total time this task has had zero running replicas, up to `now`.
  [[nodiscard]] double accumulated_idle(double now) const noexcept {
    double idle = idle_accum_;
    if (running_ == 0 && !completed_) idle += now - idle_since_;
    return idle;
  }
  /// Idle accumulated up to the last transition (static while running).
  [[nodiscard]] double frozen_idle() const noexcept { return idle_accum_; }
  /// Start of the current idle period (meaningful only while idle).
  [[nodiscard]] double idle_since() const noexcept { return idle_since_; }

 private:
  BotState* bot_;
  workload::TaskIndex index_;
  // Fills the padding after index_: the task slab stays at 64 bytes a task.
  std::uint32_t first_replica_host_ = kNoReplicaHost;
  double work_;
  double checkpointed_work_ = 0.0;
  int running_ = 0;
  bool ever_started_ = false;
  bool completed_ = false;
  bool needs_resubmission_ = false;
  // Which of the bag's pools holds this task's live entry (BotState's
  // bookkeeping); fills the padding after needs_resubmission_.
  friend class BotState;
  std::uint8_t pool_ = 0;
  double completion_time_ = 0.0;
  double idle_accum_ = 0.0;
  double idle_since_;
};

static_assert(sizeof(TaskState) <= 64, "the task slab must stay at 64 bytes a task");

}  // namespace dg::sched
