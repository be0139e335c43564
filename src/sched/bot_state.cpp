#include "sched/bot_state.hpp"

#include <algorithm>
#include <bit>
#include <climits>

#include "sched/dispatch_index.hpp"

namespace dg::sched {

BotState::BotState(const workload::BotSpec& spec, TaskOrder order,
                   std::pmr::memory_resource* mem)
    : id_(spec.id), arrival_time_(spec.arrival_time), granularity_(spec.granularity),
      mem_(mem), tasks_(mem), unstarted_order_(mem), rank_(mem), resubmission_queue_(mem),
      requeue_(mem), words_((spec.tasks.size() + 63) / 64), buckets_(mem) {
  tasks_.reserve(spec.tasks.size());
  for (std::size_t i = 0; i < spec.tasks.size(); ++i) {
    tasks_.emplace_back(*this, static_cast<workload::TaskIndex>(i), spec.tasks[i].work,
                        spec.arrival_time);
    total_work_ += spec.tasks[i].work;
  }
  unstarted_order_.reserve(tasks_.size());
  for (auto& task : tasks_) unstarted_order_.push_back(&task);
  if (order == TaskOrder::kDescendingWork) {
    // Stable, so equal works keep index order: rank order is work
    // descending, then index.
    std::stable_sort(unstarted_order_.begin(), unstarted_order_.end(),
                     [](const TaskState* a, const TaskState* b) { return a->work() > b->work(); });
    rank_.resize(tasks_.size());
    for (std::size_t r = 0; r < unstarted_order_.size(); ++r) {
      rank_[unstarted_order_[r]->index()] = static_cast<std::uint32_t>(r);
    }
  }
}

BotState::~BotState() {
  for (const Bucket& bucket : buckets_) {
    if (bucket.bits != nullptr) {
      mem_->deallocate(bucket.bits, words_ * sizeof(std::uint64_t), alignof(std::uint64_t));
    }
  }
}

TaskState* BotState::peek_unstarted() const {
  while (unstarted_cursor_ < unstarted_order_.size()) {
    TaskState* task = unstarted_order_[unstarted_cursor_];
    if (!task->ever_started() && !task->completed()) return task;
    ++unstarted_cursor_;
  }
  return nullptr;
}

namespace {
/// Oldest entry of `queue` whose task is dispatchable right now, popping the
/// stale entries in front of it.
TaskState* front_valid(std::pmr::deque<TaskState*>& queue) {
  while (!queue.empty()) {
    TaskState* task = queue.front();
    if (task->needs_resubmission() && !task->completed() && task->running_replicas() == 0) {
      return task;
    }
    queue.pop_front();
  }
  return nullptr;
}
}  // namespace

TaskState* BotState::peek_resubmission() const { return front_valid(resubmission_queue_); }

TaskState* BotState::peek_requeued() const { return front_valid(requeue_); }

void BotState::set_pool(TaskState& task, Pool pool) noexcept {
  if (task.pool_ == kResubmissionPool) --live_resubmissions_;
  if (task.pool_ == kRequeuePool) --live_requeues_;
  task.pool_ = pool;
  if (pool == kResubmissionPool) ++live_resubmissions_;
  if (pool == kRequeuePool) ++live_requeues_;
}

void BotState::push_resubmission(TaskState& task) {
  DG_ASSERT(!task.completed() && task.running_replicas() == 0);
  DG_ASSERT_MSG(requeue_.empty(), "a bag feeds only one of its two pools");
  task.set_needs_resubmission(true);
  set_pool(task, kResubmissionPool);
  resubmission_queue_.push_back(&task);
  refresh_dispatch_index();
}

void BotState::push_requeue(TaskState& task) {
  DG_ASSERT(!task.completed() && task.running_replicas() == 0);
  DG_ASSERT_MSG(resubmission_queue_.empty(), "a bag feeds only one of its two pools");
  task.set_needs_resubmission(true);
  set_pool(task, kRequeuePool);
  requeue_.push_back(&task);
  refresh_dispatch_index();
}

bool BotState::has_pending() const {
  return live_resubmissions_ > 0 || live_requeues_ > 0 || peek_unstarted() != nullptr;
}

bool BotState::has_stale_queue_entries() const noexcept {
  return (!resubmission_queue_.empty() && live_resubmissions_ == 0) ||
         (!requeue_.empty() && live_requeues_ == 0);
}

TaskState* BotState::least_replicated_below(int threshold) const noexcept {
  if (min_count_ >= threshold) return nullptr;
  const Bucket& bucket = buckets_[static_cast<std::size_t>(min_count_ - 1)];
  const std::uint64_t word = bucket.bits[bucket.first_word];
  return unstarted_order_[bucket.first_word * std::size_t{64} +
                          static_cast<std::size_t>(std::countr_zero(word))];
}

void BotState::bucket_insert(TaskState& task, int count) {
  const auto slot = static_cast<std::size_t>(count - 1);
  if (slot >= buckets_.size()) buckets_.resize(slot + 1);
  Bucket& bucket = buckets_[slot];
  const std::uint32_t r = rank(task);
  const std::uint32_t word = r / 64;
  const std::uint64_t bit = std::uint64_t{1} << (r % 64);
  if (bucket.bits == nullptr) {
    bucket.bits = static_cast<std::uint64_t*>(
        mem_->allocate(words_ * sizeof(std::uint64_t), alignof(std::uint64_t)));
    std::fill_n(bucket.bits, words_, std::uint64_t{0});
    bucket.first_word = word;
  }
  DG_ASSERT_MSG((bucket.bits[word] & bit) == 0, "task already present in replica bucket");
  bucket.bits[word] |= bit;
  ++bucket.population;
  bucket.first_word = std::min(bucket.first_word, word);
  min_count_ = std::min(min_count_, count);
}

void BotState::bucket_erase(TaskState& task, int count) {
  const auto slot = static_cast<std::size_t>(count - 1);
  DG_ASSERT_MSG(slot < buckets_.size() && buckets_[slot].bits != nullptr,
                "missing replica bucket");
  Bucket& bucket = buckets_[slot];
  const std::uint32_t r = rank(task);
  const std::uint64_t bit = std::uint64_t{1} << (r % 64);
  DG_ASSERT_MSG((bucket.bits[r / 64] & bit) != 0, "task missing from replica bucket");
  bucket.bits[r / 64] &= ~bit;
  if (--bucket.population > 0) {
    while (bucket.bits[bucket.first_word] == 0) ++bucket.first_word;
    return;
  }
  mem_->deallocate(bucket.bits, words_ * sizeof(std::uint64_t), alignof(std::uint64_t));
  bucket.bits = nullptr;
  if (count != min_count_) return;
  std::size_t next = slot + 1;
  while (next < buckets_.size() && buckets_[next].population == 0) ++next;
  min_count_ = next < buckets_.size() ? static_cast<int>(next + 1) : INT_MAX;
}

void BotState::after_replica_started(TaskState& task) {
  DG_ASSERT(!task.completed());
  const int count = task.running_replicas();
  DG_ASSERT(count >= 1);
  // Insert before erasing, so an emptied minimum finds its successor at once.
  bucket_insert(task, count);
  if (count > 1) bucket_erase(task, count - 1);
  set_pool(task, kNoPool);
  ++total_running_;
  refresh_dispatch_index();
}

void BotState::after_replica_stopped(TaskState& task) {
  --total_running_;
  DG_ASSERT(total_running_ >= 0);
  if (!task.completed()) {  // buckets were cleared at completion
    const int count = task.running_replicas();
    if (count >= 1) bucket_insert(task, count);
    bucket_erase(task, count + 1);
  }
  refresh_dispatch_index();
}

void BotState::on_task_completed(TaskState& task) {
  const int count = task.running_replicas();
  if (count >= 1) bucket_erase(task, count);
  set_pool(task, kNoPool);
  ++completed_count_;
  completed_work_ += task.work();
  DG_ASSERT(completed_count_ <= tasks_.size());
  refresh_dispatch_index();
}

void BotState::refresh_dispatch_index() {
  if (dispatch_index_ != nullptr) dispatch_index_->refresh(*this);
}

}  // namespace dg::sched
