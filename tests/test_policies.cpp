// Bag-selection policies: unit tests against hand-built scheduler state.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "sched/individual.hpp"
#include "sched/policies.hpp"
#include "sched/policy.hpp"

namespace dg::sched {
namespace {

// Drives policies without the engine: owns bags, applies the same state
// transitions (and policy hooks) the scheduler would.
class PolicyHarness {
 public:
  explicit PolicyHarness(std::unique_ptr<BagSelectionPolicy> policy,
                         IndividualSchedulerKind kind = IndividualSchedulerKind::kWqrFt)
      : policy_(std::move(policy)), individual_(IndividualScheduler::make(kind)) {}

  BotState& add_bot(std::vector<double> works, double arrival, workload::BotId id) {
    workload::BotSpec spec;
    spec.id = id;
    spec.arrival_time = arrival;
    for (double w : works) spec.tasks.push_back(workload::TaskSpec{w});
    bots_.push_back(std::make_unique<BotState>(spec, individual_->task_order()));
    BotState& bot = *bots_.back();
    active_.push_back(bot);
    index_.register_bot(bot);
    policy_->on_bot_arrival(bot, arrival);
    return bot;
  }

  void start_replica(TaskState& task, double now) {
    task.on_replica_started(now);
    task.bot().after_replica_started(task);
    policy_->on_task_transition(task, now);
  }

  void fail_replica(TaskState& task, double now, bool priority_resubmit = true) {
    task.on_replica_stopped(now);
    task.bot().after_replica_stopped(task);
    if (task.running_replicas() == 0) {
      if (priority_resubmit) {
        task.bot().push_resubmission(task);
      } else {
        task.bot().push_requeue(task);
      }
    }
    policy_->on_task_transition(task, now);
  }

  void complete_task(TaskState& task, double now) {
    task.mark_completed(now);
    BotState& bot = task.bot();
    bot.on_task_completed(task);
    policy_->on_task_transition(task, now);
    while (task.running_replicas() > 0) {
      task.on_replica_stopped(now);
      bot.after_replica_stopped(task);
    }
    if (bot.completed()) {
      policy_->on_bot_completion(bot, now);
      index_.unregister_bot(bot);
      active_.erase(bot);
    }
  }

  TaskState* select(double now, int threshold = 2) {
    SchedulerContext ctx;
    ctx.now = now;
    ctx.bots = &active_;
    ctx.index = &index_;
    ctx.individual = individual_.get();
    ctx.threshold =
        policy_->unlimited_replication() ? std::numeric_limits<int>::max() / 2 : threshold;
    index_.set_threshold(ctx.threshold);
    return policy_->select(ctx);
  }

  BagSelectionPolicy& policy() { return *policy_; }

 private:
  std::unique_ptr<BagSelectionPolicy> policy_;
  std::unique_ptr<IndividualScheduler> individual_;
  std::vector<std::unique_ptr<BotState>> bots_;
  ActiveBotList active_;
  DispatchIndex index_{active_};
};

// --- IndividualScheduler pick order ---

TEST(IndividualScheduler, WqrFtPickOrder) {
  auto wqrft = IndividualScheduler::make(IndividualSchedulerKind::kWqrFt);
  workload::BotSpec spec;
  spec.tasks = {workload::TaskSpec{10}, workload::TaskSpec{10}, workload::TaskSpec{10}};
  BotState bot(spec);
  // Unstarted first.
  EXPECT_EQ(wqrft->pick(bot, 2)->index(), 0u);
  for (std::size_t i = 0; i < 3; ++i) {
    bot.task(i).on_replica_started(1.0);
    bot.after_replica_started(bot.task(i));
  }
  // All running: replication.
  EXPECT_EQ(wqrft->pick(bot, 2)->index(), 0u);
  // A failed task beats replication.
  bot.task(2).on_replica_stopped(2.0);
  bot.after_replica_stopped(bot.task(2));
  bot.push_resubmission(bot.task(2));
  EXPECT_EQ(wqrft->pick(bot, 2)->index(), 2u);
}

TEST(IndividualScheduler, WorkQueueNeverReplicates) {
  auto wq = IndividualScheduler::make(IndividualSchedulerKind::kWorkQueue);
  EXPECT_EQ(wq->default_threshold(), 1);
  EXPECT_FALSE(wq->checkpointing());
  workload::BotSpec spec;
  spec.tasks = {workload::TaskSpec{10}};
  BotState bot(spec);
  bot.task(0).on_replica_started(1.0);
  bot.after_replica_started(bot.task(0));
  EXPECT_EQ(wq->pick(bot, 1), nullptr);
}

TEST(IndividualScheduler, WqrUsesRequeueWithoutPriority) {
  auto wqr = IndividualScheduler::make(IndividualSchedulerKind::kWqr);
  EXPECT_FALSE(wqr->resubmission_priority());
  EXPECT_FALSE(wqr->checkpointing());
  workload::BotSpec spec;
  spec.tasks = {workload::TaskSpec{10}, workload::TaskSpec{10}};
  BotState bot(spec);
  // Task 0 failed and was re-queued; task 1 is unstarted: unstarted wins.
  bot.task(0).on_replica_started(1.0);
  bot.after_replica_started(bot.task(0));
  bot.task(0).on_replica_stopped(2.0);
  bot.after_replica_stopped(bot.task(0));
  bot.push_requeue(bot.task(0));
  EXPECT_EQ(wqr->pick(bot, 2)->index(), 1u);
}

TEST(IndividualScheduler, KnowledgeBasedPicksLongestTask) {
  auto kb = IndividualScheduler::make(IndividualSchedulerKind::kKnowledgeBased);
  EXPECT_EQ(kb->task_order(), TaskOrder::kDescendingWork);
  workload::BotSpec spec;
  spec.tasks = {workload::TaskSpec{10}, workload::TaskSpec{500}, workload::TaskSpec{100}};
  BotState bot(spec, kb->task_order());
  EXPECT_EQ(kb->pick(bot, 2)->index(), 1u);
}

TEST(IndividualScheduler, FactoryNames) {
  EXPECT_EQ(IndividualScheduler::make(IndividualSchedulerKind::kWqrFt)->name(), "WQR-FT");
  EXPECT_EQ(IndividualScheduler::make(IndividualSchedulerKind::kWqr)->name(), "WQR");
  EXPECT_EQ(IndividualScheduler::make(IndividualSchedulerKind::kWorkQueue)->name(), "WorkQueue");
  EXPECT_EQ(IndividualScheduler::make(IndividualSchedulerKind::kKnowledgeBased)->name(),
            "KB-LTF");
}

// --- FCFS-Excl ---

TEST(FcfsExcl, OnlyServesOldestBag) {
  PolicyHarness h(make_policy(PolicyKind::kFcfsExcl));
  BotState& first = h.add_bot({10, 10}, 0.0, 0);
  h.add_bot({10, 10}, 1.0, 1);
  for (int i = 0; i < 6; ++i) {
    TaskState* task = h.select(2.0);
    ASSERT_NE(task, nullptr);
    EXPECT_EQ(task->bot().id(), first.id());
    h.start_replica(*task, 2.0);
  }
}

TEST(FcfsExcl, ReplicatesWithoutBound) {
  PolicyHarness h(make_policy(PolicyKind::kFcfsExcl));
  BotState& bot = h.add_bot({10}, 0.0, 0);
  for (int i = 0; i < 50; ++i) {
    TaskState* task = h.select(1.0);
    ASSERT_NE(task, nullptr);
    h.start_replica(*task, 1.0);
  }
  EXPECT_EQ(bot.task(0).running_replicas(), 50);
}

TEST(FcfsExcl, MovesToNextBagAfterCompletion) {
  PolicyHarness h(make_policy(PolicyKind::kFcfsExcl));
  BotState& first = h.add_bot({10}, 0.0, 0);
  BotState& second = h.add_bot({10}, 1.0, 1);
  TaskState* task = h.select(2.0);
  h.start_replica(*task, 2.0);
  h.complete_task(first.task(0), 3.0);
  TaskState* next = h.select(3.0);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(&next->bot(), &second);
}

TEST(FcfsExcl, EmptySystemSelectsNothing) {
  PolicyHarness h(make_policy(PolicyKind::kFcfsExcl));
  EXPECT_EQ(h.select(0.0), nullptr);
}

// --- FCFS-Share ---

TEST(FcfsShare, ServesFirstBagFullyIncludingReplication) {
  PolicyHarness h(make_policy(PolicyKind::kFcfsShare));
  BotState& first = h.add_bot({10, 10}, 0.0, 0);
  BotState& second = h.add_bot({10, 10}, 1.0, 1);
  // First bag: 2 pending + 2 replication slots (threshold 2) = 4 picks.
  for (int i = 0; i < 4; ++i) {
    TaskState* task = h.select(2.0);
    ASSERT_NE(task, nullptr);
    EXPECT_EQ(&task->bot(), &first) << "pick " << i;
    h.start_replica(*task, 2.0);
  }
  // Then overflow to the second bag.
  TaskState* task = h.select(2.0);
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(&task->bot(), &second);
}

TEST(FcfsShare, FailedTaskOfOlderBagBeatsYoungerBag) {
  PolicyHarness h(make_policy(PolicyKind::kFcfsShare));
  BotState& first = h.add_bot({10}, 0.0, 0);
  h.add_bot({10, 10}, 1.0, 1);
  TaskState* task = h.select(2.0);
  h.start_replica(*task, 2.0);          // first bag task running (1 replica)
  TaskState* second_replica = h.select(2.0);
  h.start_replica(*second_replica, 2.0);  // replica #2, first bag at threshold
  h.fail_replica(first.task(0), 3.0);
  h.fail_replica(first.task(0), 3.0);   // both replicas die -> resubmission
  TaskState* next = h.select(3.0);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(&next->bot(), &first);
  EXPECT_TRUE(next->needs_resubmission());
}

TEST(FcfsShare, NothingDispatchableReturnsNull) {
  PolicyHarness h(make_policy(PolicyKind::kFcfsShare));
  BotState& bot = h.add_bot({10}, 0.0, 0);
  h.start_replica(bot.task(0), 1.0);
  h.start_replica(bot.task(0), 1.0);  // at threshold 2
  EXPECT_EQ(h.select(1.0), nullptr);
}

// --- RR ---

TEST(RoundRobin, CyclesThroughBags) {
  PolicyHarness h(make_policy(PolicyKind::kRoundRobin));
  h.add_bot({10, 10, 10}, 0.0, 0);
  h.add_bot({10, 10, 10}, 1.0, 1);
  h.add_bot({10, 10, 10}, 2.0, 2);
  std::vector<workload::BotId> served;
  for (int i = 0; i < 6; ++i) {
    TaskState* task = h.select(3.0);
    ASSERT_NE(task, nullptr);
    served.push_back(task->bot().id());
    h.start_replica(*task, 3.0);
  }
  EXPECT_EQ(served, (std::vector<workload::BotId>{0, 1, 2, 0, 1, 2}));
}

TEST(RoundRobin, SkipsUndispatchableBags) {
  PolicyHarness h(make_policy(PolicyKind::kRoundRobin));
  BotState& first = h.add_bot({10}, 0.0, 0);
  h.add_bot({10, 10}, 1.0, 1);
  // Saturate bag 0 (threshold 2).
  h.start_replica(first.task(0), 2.0);
  h.start_replica(first.task(0), 2.0);
  // Bag 1 can absorb 2 pending + 2 replication slots.
  for (int i = 0; i < 4; ++i) {
    TaskState* task = h.select(2.0);
    ASSERT_NE(task, nullptr);
    EXPECT_EQ(task->bot().id(), 1u);
    h.start_replica(*task, 2.0);
  }
  EXPECT_EQ(h.select(2.0), nullptr) << "everything at threshold";
}

TEST(RoundRobin, CursorPersistsAcrossArrivals) {
  PolicyHarness h(make_policy(PolicyKind::kRoundRobin));
  h.add_bot({10, 10}, 0.0, 0);
  h.add_bot({10, 10}, 1.0, 1);
  TaskState* a = h.select(2.0);
  EXPECT_EQ(a->bot().id(), 0u);
  h.start_replica(*a, 2.0);
  h.add_bot({10, 10}, 2.0, 2);
  TaskState* b = h.select(2.0);
  EXPECT_EQ(b->bot().id(), 1u);  // continues after bag 0, not restarted
}

// --- RR-NRF ---

TEST(RoundRobinNrf, ServesAllZeroRunningBagsBeforeResumingSweep) {
  PolicyHarness h(make_policy(PolicyKind::kRoundRobinNrf));
  BotState& first = h.add_bot({10, 10}, 0.0, 0);
  BotState& second = h.add_bot({10, 10}, 1.0, 1);
  BotState& third = h.add_bot({10, 10}, 2.0, 2);
  h.start_replica(first.task(0), 3.0);
  // Bags 1 and 2 have no running instance: served in arrival order.
  TaskState* a = h.select(3.0);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(&a->bot(), &second);
  h.start_replica(*a, 3.0);
  TaskState* b = h.select(3.0);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(&b->bot(), &third);
  h.start_replica(*b, 3.0);
  // Everyone running: back to the circular sweep.
  TaskState* c = h.select(3.0);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(&c->bot(), &first);
}

TEST(RoundRobinNrf, ZeroRunningBagServedFirst) {
  PolicyHarness h(make_policy(PolicyKind::kRoundRobinNrf));
  BotState& first = h.add_bot({10, 10}, 0.0, 0);
  BotState& second = h.add_bot({10, 10}, 1.0, 1);
  h.start_replica(first.task(0), 2.0);
  // Bag 1 has zero running tasks: it must be served before bag 0 again.
  TaskState* task = h.select(2.0);
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(&task->bot(), &second);
  h.start_replica(*task, 2.0);
  // All bags now running: normal RR resumes.
  TaskState* next = h.select(2.0);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(&next->bot(), &first);
}

TEST(RoundRobinNrf, NewArrivalJumpsTheCircularOrder) {
  PolicyHarness h(make_policy(PolicyKind::kRoundRobinNrf));
  BotState& first = h.add_bot({10, 10, 10}, 0.0, 0);
  h.start_replica(first.task(0), 1.0);
  BotState& late = h.add_bot({10, 10}, 5.0, 1);
  TaskState* task = h.select(5.0);
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(&task->bot(), &late);
}

// --- LongIdle ---

TEST(LongIdle, PicksOldestBagWhilePendingExists) {
  PolicyHarness h(make_policy(PolicyKind::kLongIdle));
  BotState& first = h.add_bot({10, 10}, 0.0, 0);
  h.add_bot({10, 10}, 100.0, 1);
  // First bag's unstarted tasks have waited since t=0, second since t=100.
  TaskState* task = h.select(200.0);
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(&task->bot(), &first);
}

TEST(LongIdle, SwitchesToYoungerBagOnceOlderFullyRunning) {
  PolicyHarness h(make_policy(PolicyKind::kLongIdle));
  BotState& first = h.add_bot({10, 10}, 0.0, 0);
  BotState& second = h.add_bot({10, 10}, 100.0, 1);
  h.start_replica(first.task(0), 200.0);
  h.start_replica(first.task(1), 200.0);
  // First bag: all tasks running, frozen waiting = 200 each. Second bag's
  // unstarted tasks have waited 100 < 200... so first is still preferred,
  // but it must deliver a *replication* pick.
  TaskState* task = h.select(300.0);
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(&task->bot(), &first);
  EXPECT_GE(task->running_replicas(), 1);
  h.start_replica(*task, 300.0);
  h.start_replica(first.task(1), 300.0);  // first bag now at threshold 2
  // First bag undispatchable: overflow to second.
  TaskState* overflow = h.select(300.0);
  ASSERT_NE(overflow, nullptr);
  EXPECT_EQ(&overflow->bot(), &second);
}

TEST(LongIdle, YoungerBagWinsWhenItsWaitExceedsFrozenWait) {
  PolicyHarness h(make_policy(PolicyKind::kLongIdle));
  BotState& first = h.add_bot({10, 10}, 0.0, 0);
  BotState& second = h.add_bot({10, 10}, 10.0, 1);
  // First bag fully dispatched immediately: frozen waiting ~0.
  h.start_replica(first.task(0), 0.0);
  h.start_replica(first.task(1), 0.0);
  // At t=500 the second bag's unstarted tasks have waited 490 > 0.
  TaskState* task = h.select(500.0);
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(&task->bot(), &second);
}

TEST(LongIdle, FailedTaskWaitAccumulatesAcrossPeriods) {
  PolicyHarness h(make_policy(PolicyKind::kLongIdle));
  BotState& first = h.add_bot({10}, 0.0, 0);
  BotState& second = h.add_bot({10}, 50.0, 1);
  // First bag task: idle [0,100), runs [100,200), fails, idle from 200.
  h.start_replica(first.task(0), 100.0);
  h.fail_replica(first.task(0), 200.0);
  // Second bag task: idle since 50 continuously.
  // At t=260: first waited 100 + 60 = 160; second waited 210. Second wins.
  TaskState* task = h.select(260.0);
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(&task->bot(), &second);
  // At t=400: first 100+200=300; second... started at 260.
  h.start_replica(*task, 260.0);
  TaskState* next = h.select(400.0);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(&next->bot(), &first);
}

// --- Random ---

TEST(Random, OnlySelectsDispatchableBags) {
  PolicyHarness h(make_policy(PolicyKind::kRandom, 123));
  BotState& first = h.add_bot({10}, 0.0, 0);
  h.add_bot({10, 10}, 1.0, 1);
  h.start_replica(first.task(0), 2.0);
  h.start_replica(first.task(0), 2.0);  // bag 0 saturated
  for (int i = 0; i < 20; ++i) {
    TaskState* task = h.select(2.0);
    ASSERT_NE(task, nullptr);
    EXPECT_EQ(task->bot().id(), 1u);
  }
}

TEST(Random, EventuallyServesAllBags) {
  PolicyHarness h(make_policy(PolicyKind::kRandom, 321));
  h.add_bot({10, 10, 10, 10}, 0.0, 0);
  h.add_bot({10, 10, 10, 10}, 1.0, 1);
  bool saw0 = false, saw1 = false;
  for (int i = 0; i < 8; ++i) {
    TaskState* task = h.select(2.0);
    ASSERT_NE(task, nullptr);
    saw0 |= task->bot().id() == 0;
    saw1 |= task->bot().id() == 1;
    h.start_replica(*task, 2.0);
  }
  EXPECT_TRUE(saw0);
  EXPECT_TRUE(saw1);
}

// --- PF-RR (hybrid extension) ---

TEST(PendingFirst, PendingServedInArrivalOrder) {
  PolicyHarness h(make_policy(PolicyKind::kPendingFirst));
  BotState& first = h.add_bot({10, 10}, 0.0, 0);
  BotState& second = h.add_bot({10, 10}, 1.0, 1);
  // All four picks are pending tasks, old bag first.
  for (int i = 0; i < 2; ++i) {
    TaskState* task = h.select(2.0);
    ASSERT_NE(task, nullptr);
    EXPECT_EQ(&task->bot(), &first);
    h.start_replica(*task, 2.0);
  }
  for (int i = 0; i < 2; ++i) {
    TaskState* task = h.select(2.0);
    ASSERT_NE(task, nullptr);
    EXPECT_EQ(&task->bot(), &second);
    h.start_replica(*task, 2.0);
  }
}

TEST(PendingFirst, YoungerPendingBeatsOlderReplication) {
  // The defining difference from FCFS-Share: once bag 0's tasks all run,
  // bag 1's fresh tasks come before bag 0's replicas.
  PolicyHarness h(make_policy(PolicyKind::kPendingFirst));
  BotState& first = h.add_bot({10}, 0.0, 0);
  BotState& second = h.add_bot({10}, 1.0, 1);
  h.start_replica(first.task(0), 2.0);
  TaskState* task = h.select(2.0);
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(&task->bot(), &second);
}

TEST(PendingFirst, ReplicationSpreadsRoundRobin) {
  PolicyHarness h(make_policy(PolicyKind::kPendingFirst));
  BotState& first = h.add_bot({10, 10}, 0.0, 0);
  BotState& second = h.add_bot({10, 10}, 1.0, 1);
  for (std::size_t t = 0; t < 2; ++t) {
    h.start_replica(first.task(t), 2.0);
    h.start_replica(second.task(t), 2.0);
  }
  // No pending anywhere: replication alternates between the bags.
  std::vector<workload::BotId> served;
  for (int i = 0; i < 4; ++i) {
    TaskState* task = h.select(2.0);
    ASSERT_NE(task, nullptr);
    served.push_back(task->bot().id());
    h.start_replica(*task, 2.0);
  }
  EXPECT_EQ(served, (std::vector<workload::BotId>{0, 1, 0, 1}));
  EXPECT_EQ(h.select(2.0), nullptr);  // everyone at threshold 2
}

TEST(PendingFirst, FailedTaskOfOldBagPreemptsEverything) {
  PolicyHarness h(make_policy(PolicyKind::kPendingFirst));
  BotState& first = h.add_bot({10}, 0.0, 0);
  h.add_bot({10, 10}, 1.0, 1);
  h.start_replica(first.task(0), 2.0);
  h.fail_replica(first.task(0), 3.0);
  TaskState* task = h.select(3.0);
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(&task->bot(), &first);
  EXPECT_TRUE(task->needs_resubmission());
}

// --- SJF-Bag (knowledge-based baseline) ---

TEST(ShortestBagFirst, PicksBagWithLeastRemainingWork) {
  PolicyHarness h(make_policy(PolicyKind::kShortestBagFirst));
  h.add_bot({100, 100, 100}, 0.0, 0);   // remaining 300
  BotState& small = h.add_bot({50}, 1.0, 1);  // remaining 50
  TaskState* task = h.select(2.0);
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(&task->bot(), &small);
}

TEST(ShortestBagFirst, RemainingWorkShrinksWithCompletions) {
  PolicyHarness h(make_policy(PolicyKind::kShortestBagFirst));
  BotState& big = h.add_bot({100, 100}, 0.0, 0);     // remaining 200
  BotState& medium = h.add_bot({150}, 1.0, 1);       // remaining 150
  // Complete one task of the big bag: remaining 100 < 150.
  h.start_replica(big.task(0), 2.0);
  h.complete_task(big.task(0), 3.0);
  EXPECT_DOUBLE_EQ(big.remaining_work(), 100.0);
  TaskState* task = h.select(3.0);
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(&task->bot(), &big);
  (void)medium;
}

TEST(ShortestBagFirst, TiesResolveToOlderBag) {
  PolicyHarness h(make_policy(PolicyKind::kShortestBagFirst));
  BotState& first = h.add_bot({100}, 0.0, 0);
  h.add_bot({100}, 1.0, 1);
  TaskState* task = h.select(2.0);
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(&task->bot(), &first);
}

// --- factory / names ---

TEST(PolicyFactory, NamesMatchPaper) {
  EXPECT_EQ(make_policy(PolicyKind::kFcfsExcl)->name(), "FCFS-Excl");
  EXPECT_EQ(make_policy(PolicyKind::kFcfsShare)->name(), "FCFS-Share");
  EXPECT_EQ(make_policy(PolicyKind::kRoundRobin)->name(), "RR");
  EXPECT_EQ(make_policy(PolicyKind::kRoundRobinNrf)->name(), "RR-NRF");
  EXPECT_EQ(make_policy(PolicyKind::kLongIdle)->name(), "LongIdle");
  EXPECT_EQ(make_policy(PolicyKind::kRandom)->name(), "Random");
  EXPECT_EQ(make_policy(PolicyKind::kShortestBagFirst)->name(), "SJF-Bag");
  EXPECT_EQ(make_policy(PolicyKind::kPendingFirst)->name(), "PF-RR");
}

TEST(PolicyFactory, PaperPoliciesAreTheFive) {
  const auto policies = paper_policies();
  ASSERT_EQ(policies.size(), 5u);
  EXPECT_EQ(policies[0], PolicyKind::kFcfsExcl);
  EXPECT_EQ(policies[4], PolicyKind::kLongIdle);
}

TEST(PolicyFactory, OnlyFcfsExclUsesUnlimitedReplication) {
  EXPECT_TRUE(make_policy(PolicyKind::kFcfsExcl)->unlimited_replication());
  for (PolicyKind kind : {PolicyKind::kFcfsShare, PolicyKind::kRoundRobin,
                          PolicyKind::kRoundRobinNrf, PolicyKind::kLongIdle,
                          PolicyKind::kRandom}) {
    EXPECT_FALSE(make_policy(kind)->unlimited_replication());
  }
}

}  // namespace
}  // namespace dg::sched
