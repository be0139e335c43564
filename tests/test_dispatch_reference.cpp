// Brute-force reference for the dispatch state.
//
// State level: seeded random runs drive BotState and DispatchIndex through
// replica starts, failures with their pool pushes, task completions with
// their sibling stops, bag arrivals and completions, and threshold changes
// (unlimited included). After every step each query is compared with a
// re-scan of every task and bag, and every drain_stale_* call must probe
// exactly the bags a re-scan finds stale in its range.
//
// Simulation level: the index-driven FCFS-Excl, FCFS-Share, RR and RR-NRF
// must start the same replicas, at the same times, on the same machines as
// the positional scans they replaced, which probe ctx.bots in arrival order
// and never touch ctx.index. LongIdle has tests/test_longidle_reference.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "rng/random_stream.hpp"
#include "sched/bot_state.hpp"
#include "sched/dispatch_index.hpp"
#include "sched/individual.hpp"
#include "sched/policy.hpp"
#include "sim/observer.hpp"
#include "sim/simulation.hpp"

namespace dg::sched {
namespace {

// ---------------------------------------------------------------------------
// State level
// ---------------------------------------------------------------------------

constexpr int kUnlimited = INT_MAX / 2;  // MultiBotScheduler's FCFS-Excl threshold

bool in_pool(const TaskState& task) {
  return task.needs_resubmission() && !task.completed() && task.running_replicas() == 0;
}

bool before(const TaskState& a, const TaskState& b, TaskOrder order) {
  if (order == TaskOrder::kDescendingWork && a.work() != b.work()) return a.work() > b.work();
  return a.index() < b.index();
}

/// The test's copy of one bag's two pools: every push is mirrored, and so is
/// every lazy pop, by replaying the pick order on the copy.
struct ShadowPools {
  std::deque<TaskState*> resubmission;
  std::deque<TaskState*> requeue;
};

TaskState* front_in_pool(std::deque<TaskState*>& pool) {
  while (!pool.empty() && !in_pool(*pool.front())) pool.pop_front();
  return pool.empty() ? nullptr : pool.front();
}

bool stale(const std::deque<TaskState*>& pool) {
  return !pool.empty() && std::none_of(pool.begin(), pool.end(),
                                       [](const TaskState* task) { return in_pool(*task); });
}

/// Re-scan answers for one bag.
struct BagScan {
  TaskState* unstarted = nullptr;  // first never-started task in the bag's order
  bool pending = false;
  int min_count = INT_MAX;
  int total_running = 0;
};

BagScan scan(BotState& bot, TaskOrder order) {
  BagScan out;
  for (std::size_t i = 0; i < bot.num_tasks(); ++i) {
    TaskState& task = bot.task(i);
    out.total_running += task.running_replicas();
    if (task.completed()) continue;
    if (task.running_replicas() == 0 && (!task.ever_started() || task.needs_resubmission())) {
      out.pending = true;
    }
    if (!task.ever_started() && (out.unstarted == nullptr || before(task, *out.unstarted, order))) {
      out.unstarted = &task;
    }
    if (task.running_replicas() >= 1) {
      out.min_count = std::min(out.min_count, task.running_replicas());
    }
  }
  return out;
}

TaskState* least_replicated_scan(BotState& bot, int threshold, TaskOrder order) {
  TaskState* best = nullptr;
  for (std::size_t i = 0; i < bot.num_tasks(); ++i) {
    TaskState& task = bot.task(i);
    const int count = task.running_replicas();
    if (task.completed() || count < 1 || count >= threshold) continue;
    if (best == nullptr || count < best->running_replicas() ||
        (count == best->running_replicas() && before(task, *best, order))) {
      best = &task;
    }
  }
  return best;
}

class StateWorld;

/// Records every bag it is asked to pick from, mirrors the lazy pool pops of
/// IndividualScheduler::pick on the shadow pools, and checks the pick
/// against a re-scan.
class ReferenceIndividual final : public IndividualScheduler {
 public:
  ReferenceIndividual(StateWorld& world, bool priority, TaskOrder order)
      : world_(world), priority_(priority), order_(order) {}
  [[nodiscard]] std::string name() const override { return "reference"; }
  [[nodiscard]] bool checkpointing() const override { return false; }
  [[nodiscard]] bool resubmission_priority() const override { return priority_; }
  [[nodiscard]] int default_threshold() const override { return 2; }
  [[nodiscard]] TaskOrder task_order() const override { return order_; }
  [[nodiscard]] TaskState* pick(const BotState& bot, int threshold) const override;

  mutable std::vector<workload::BotId> probes;

 private:
  StateWorld& world_;
  bool priority_;
  TaskOrder order_;
};

class StateWorld {
 public:
  StateWorld(std::uint64_t seed, bool resubmit, TaskOrder task_order)
      : stream(seed), priority(resubmit), order(task_order),
        individual(*this, resubmit, task_order) {}

  void add_bag() {
    workload::BotSpec spec;
    spec.id = static_cast<workload::BotId>(bags.size());
    // Mostly small bags, a few wider than one bitmap word. Works come from a
    // short list so KB-LTF's work-descending order has ties to break.
    const bool wide = stream.uniform01() < 0.2;
    const std::size_t tasks = wide ? 65 + stream.uniform_int(0, 70) : 1 + stream.uniform_int(0, 11);
    for (std::size_t t = 0; t < tasks; ++t) {
      const double work = 10.0 * static_cast<double>(1 + stream.uniform_int(0, 4));
      spec.tasks.push_back(workload::TaskSpec{work});
    }
    bags.push_back(std::make_unique<BotState>(spec, order));
    shadows.emplace_back();
    active.push_back(*bags.back());
    index.register_bot(*bags.back());
  }

  void start(TaskState& task) {
    task.on_replica_started(0.0);
    task.bot().after_replica_started(task);
  }

  void fail(TaskState& task) {
    BotState& bot = task.bot();
    task.on_replica_stopped(0.0);
    bot.after_replica_stopped(task);
    if (task.running_replicas() > 0) return;
    if (priority) {
      bot.push_resubmission(task);
      shadows[bot.id()].resubmission.push_back(&task);
    } else {
      bot.push_requeue(task);
      shadows[bot.id()].requeue.push_back(&task);
    }
  }

  /// Mirrors the engine and scheduler: mark, notify the bag, retire a
  /// finished bag from the index, then stop the sibling replicas.
  void complete(TaskState& task) {
    BotState& bot = task.bot();
    task.mark_completed(0.0);
    bot.on_task_completed(task);
    if (bot.completed()) {
      index.unregister_bot(bot);
      active.erase(bot);
    }
    while (task.running_replicas() > 0) {
      task.on_replica_stopped(0.0);
      bot.after_replica_stopped(task);
    }
  }

  std::vector<TaskState*> running_tasks() {
    std::vector<TaskState*> out;
    for (BotState* bot : active) {
      for (std::size_t i = 0; i < bot->num_tasks(); ++i) {
        TaskState& task = bot->task(i);
        if (!task.completed() && task.running_replicas() > 0) out.push_back(&task);
      }
    }
    return out;
  }

  [[nodiscard]] bool dispatchable(const BagScan& s) const {
    return s.pending || (threshold > 1 && s.min_count < threshold);
  }

  /// Every query of every registered bag and of the index against a re-scan.
  void check_queries() {
    std::vector<BotState*> eligible;  // dispatchable, ascending id
    BotState* no_running = nullptr;
    for (BotState* bot : active) {
      SCOPED_TRACE("bag " + std::to_string(bot->id()));
      const BagScan s = scan(*bot, order);
      for (const int t : {1, 2, 3, kUnlimited}) {
        ASSERT_EQ(bot->least_replicated_below(t), least_replicated_scan(*bot, t, order)) << t;
      }
      ASSERT_EQ(bot->min_replicated_count(), s.min_count);
      ASSERT_EQ(bot->total_running(), s.total_running);
      ASSERT_EQ(bot->has_pending(), s.pending);
      ASSERT_EQ(bot->peek_unstarted(), s.unstarted);
      const ShadowPools& pools = shadows[bot->id()];
      ASSERT_EQ(bot->has_stale_queue_entries(), stale(pools.resubmission) || stale(pools.requeue));
      if (dispatchable(s)) eligible.push_back(bot);
      if (s.total_running == 0 && no_running == nullptr) no_running = bot;
    }
    ASSERT_EQ(index.first_dispatchable(), eligible.empty() ? nullptr : eligible.front());
    ASSERT_EQ(index.first_no_running(), no_running);
    std::vector<std::uint64_t> cursors{~0ULL};
    for (std::uint64_t c = 0; c <= bags.size() + 1; ++c) cursors.push_back(c);
    for (const std::uint64_t c : cursors) {
      BotState* expected = eligible.empty() ? nullptr : eligible.front();
      for (BotState* bot : eligible) {
        if (bot->id() > c) {
          expected = bot;
          break;
        }
      }
      ASSERT_EQ(index.next_dispatchable_after(c), expected) << "cursor " << c;
    }
  }

  /// Registered bags a re-scan finds stale, with id in [lo, hi), ascending.
  std::vector<workload::BotId> stale_between(std::uint64_t lo, std::uint64_t hi) {
    std::vector<workload::BotId> out;
    for (BotState* bot : active) {
      const ShadowPools& pools = shadows[bot->id()];
      const bool is_stale = stale(pools.resubmission) || stale(pools.requeue);
      if (bot->id() >= lo && bot->id() < hi && is_stale) {
        out.push_back(bot->id());
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// One select of an index-driven policy (FCFS-Share, RR or RR-NRF style),
  /// checking the bags each drain probes; starts the chosen task.
  void select() {
    constexpr std::uint64_t kAll = ~0ULL;
    const double style = stream.uniform01();
    BotState* bot = style < 0.2 ? index.first_no_running() : nullptr;
    if (bot == nullptr && style < 0.6) {
      // RR: the ring successor of the cursor, after draining what the
      // circular scan passed over.
      bot = index.next_dispatchable_after(cursor);
      std::vector<workload::BotId> expected;
      if (bot == nullptr) {
        expected = stale_between(0, kAll);
      } else if (bot->id() > cursor) {
        expected = stale_between(cursor + 1, bot->id());
      } else {
        if (cursor != kAll) expected = stale_between(cursor + 1, kAll);
        const auto front = stale_between(0, bot->id());
        expected.insert(expected.end(), front.begin(), front.end());
      }
      individual.probes.clear();
      if (bot == nullptr) {
        index.drain_stale_all(individual);
      } else {
        index.drain_stale_ring(individual, cursor, bot->id());
        cursor = bot->id();
      }
      ASSERT_EQ(individual.probes, expected) << "ring drain";
    } else if (bot == nullptr) {
      // FCFS-Share: the oldest dispatchable bag, after draining the older ones.
      bot = index.first_dispatchable();
      const auto expected = stale_between(0, bot == nullptr ? kAll : bot->id());
      individual.probes.clear();
      if (bot == nullptr) {
        index.drain_stale_all(individual);
      } else {
        index.drain_stale_below(individual, bot->id());
      }
      ASSERT_EQ(individual.probes, expected) << "arrival-order drain";
    }
    if (bot == nullptr) return;
    TaskState* task = individual.pick(*bot, threshold);
    ASSERT_NE(task, nullptr);
    ASSERT_LT(task->running_replicas(), threshold);
    start(*task);
  }

  rng::RandomStream stream;
  bool priority;
  TaskOrder order;
  std::vector<std::unique_ptr<BotState>> bags;  // index = bag id
  std::vector<ShadowPools> shadows;             // index = bag id
  ActiveBotList active;
  DispatchIndex index{active};
  ReferenceIndividual individual;
  int threshold = 2;
  std::uint64_t cursor = ~0ULL;
};

TaskState* ReferenceIndividual::pick(const BotState& const_bot, int threshold) const {
  probes.push_back(const_bot.id());
  BotState& bot = *world_.bags[const_bot.id()];
  ShadowPools& pools = world_.shadows[bot.id()];
  TaskState* expected = priority_ ? front_in_pool(pools.resubmission) : nullptr;
  if (expected == nullptr) expected = scan(bot, order_).unstarted;
  if (expected == nullptr) expected = front_in_pool(pools.requeue);
  if (expected == nullptr && threshold > 1) {
    expected = least_replicated_scan(bot, threshold, order_);
  }
  TaskState* actual = IndividualScheduler::pick(const_bot, threshold);
  EXPECT_EQ(actual, expected) << "pick from bag " << bot.id();
  return actual;
}

using StateParam = std::tuple<int, bool, TaskOrder>;

class DispatchStateReference : public ::testing::TestWithParam<StateParam> {};

TEST_P(DispatchStateReference, QueriesMatchAReScanAfterEveryStep) {
  const auto [seed, priority, order] = GetParam();
  StateWorld world(static_cast<std::uint64_t>(seed), priority, order);
  world.index.set_threshold(world.threshold);
  constexpr std::size_t kMachines = 120;
  std::size_t max_count = 0;
  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const double action = world.stream.uniform01();
    std::vector<TaskState*> running = world.running_tasks();
    std::size_t replicas = 0;
    for (const TaskState* task : running) {
      replicas += static_cast<std::size_t>(task->running_replicas());
      max_count = std::max(max_count, static_cast<std::size_t>(task->running_replicas()));
    }
    if (action < 0.04 || world.active.empty()) {
      if (world.bags.size() < 90) world.add_bag();
    } else if (action < 0.06) {
      static constexpr int kThresholds[] = {1, 2, 3, kUnlimited};
      world.threshold = kThresholds[world.stream.uniform_int(0, 3)];
      world.index.set_threshold(world.threshold);
    } else if (action < 0.55) {
      if (replicas < kMachines) world.select();
    } else if (action < 0.8) {
      if (!running.empty()) world.fail(*running[world.stream.uniform_int(0, running.size() - 1)]);
    } else if (!running.empty()) {
      world.complete(*running[world.stream.uniform_int(0, running.size() - 1)]);
    }
    if (HasFatalFailure()) return;
    world.check_queries();
    if (HasFatalFailure()) return;
  }
  // The runs must reach what the bitmaps index past one word, and counts
  // of the kind FCFS-Excl builds at the tail of a bag.
  EXPECT_GT(world.bags.size(), 64u);
  EXPECT_TRUE(std::any_of(world.bags.begin(), world.bags.end(),
                          [](const auto& bag) { return bag->num_tasks() > 64; }));
  EXPECT_GE(max_count, 8u);
}

std::string state_name(const ::testing::TestParamInfo<StateParam>& info) {
  return "Seed" + std::to_string(std::get<0>(info.param)) +
         (std::get<1>(info.param) ? "_Resubmission" : "_Requeue") +
         (std::get<2>(info.param) == TaskOrder::kArrival ? "_Arrival" : "_DescendingWork");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispatchStateReference,
                         ::testing::Combine(::testing::Range(1, 5), ::testing::Bool(),
                                            ::testing::Values(TaskOrder::kArrival,
                                                              TaskOrder::kDescendingWork)),
                         state_name);

// ---------------------------------------------------------------------------
// Simulation level
// ---------------------------------------------------------------------------

/// The pre-index bag selection: each select probes ctx.bots in arrival
/// order with pick_from and never reads ctx.index.
class PositionalPolicy final : public BagSelectionPolicy {
 public:
  explicit PositionalPolicy(PolicyKind kind) : kind_(kind) {}
  [[nodiscard]] std::string name() const override { return to_string(kind_) + "-positional"; }
  [[nodiscard]] bool unlimited_replication() const override {
    return kind_ == PolicyKind::kFcfsExcl;
  }

  [[nodiscard]] TaskState* select(SchedulerContext& ctx) override {
    switch (kind_) {
      case PolicyKind::kFcfsExcl:
        return ctx.bots->empty() ? nullptr : ctx.pick_from(*ctx.bots->front());
      case PolicyKind::kFcfsShare:
        for (BotState* bot : *ctx.bots) {
          if (TaskState* task = ctx.pick_from(*bot)) return task;
        }
        return nullptr;
      case PolicyKind::kRoundRobinNrf:
        for (BotState* bot : *ctx.bots) {
          if (bot->total_running() != 0) continue;
          if (TaskState* task = ctx.pick_from(*bot)) return task;
        }
        return round_robin(ctx);
      default:
        return round_robin(ctx);
    }
  }

 private:
  TaskState* round_robin(SchedulerContext& ctx) {
    std::vector<BotState*> bots;
    for (BotState* bot : *ctx.bots) bots.push_back(bot);
    const std::size_t n = bots.size();
    std::size_t start = 0;
    while (start < n && static_cast<std::uint64_t>(bots[start]->id()) <= cursor_) ++start;
    if (start == n) start = 0;
    for (std::size_t i = 0; i < n; ++i) {
      BotState* bot = bots[(start + i) % n];
      if (TaskState* task = ctx.pick_from(*bot)) {
        cursor_ = bot->id();
        return task;
      }
    }
    return nullptr;
  }

  PolicyKind kind_;
  std::uint64_t cursor_ = ~0ULL;
};

using Start = std::tuple<double, workload::BotId, workload::TaskIndex, grid::MachineId>;

class StartLog final : public sim::SimulationObserver {
 public:
  void on_replica_started(const TaskState& task, const grid::Machine& machine,
                          double now) override {
    starts.emplace_back(now, task.bot().id(), task.index(), machine.id());
  }
  std::vector<Start> starts;
};

enum class World : std::uint8_t { kAlways, kLow, kLowServerFaults };

using SimParam = std::tuple<PolicyKind, IndividualSchedulerKind, World>;

class PositionalScanReference : public ::testing::TestWithParam<SimParam> {};

TEST_P(PositionalScanReference, IndexPathStartsTheSameReplicas) {
  const auto [policy, individual, world] = GetParam();
  sim::SimulationConfig config;
  config.grid = grid::GridConfig::preset(
      grid::Heterogeneity::kHet,
      world == World::kAlways ? grid::AvailabilityLevel::kAlways : grid::AvailabilityLevel::kLow);
  if (world == World::kLowServerFaults) {
    config.grid.checkpoint_server_faults.enabled = true;
    config.grid.checkpoint_server_faults.mtbf = 8000.0;
    config.grid.checkpoint_server_faults.mttr = 4000.0;
  }
  config.workload = sim::make_paper_workload(config.grid, 25000.0, workload::Intensity::kHigh, 16);
  config.policy = policy;
  config.individual = individual;
  config.seed = 4242;

  StartLog indexed;
  (void)sim::Simulation(config).run(&indexed);

  config.wrap_policy = [policy](std::unique_ptr<BagSelectionPolicy>) {
    return std::make_unique<PositionalPolicy>(policy);
  };
  StartLog positional;
  (void)sim::Simulation(config).run(&positional);

  ASSERT_GT(indexed.starts.size(), 0u);
  ASSERT_EQ(indexed.starts.size(), positional.starts.size());
  for (std::size_t i = 0; i < indexed.starts.size(); ++i) {
    ASSERT_EQ(indexed.starts[i], positional.starts[i]) << "replica start " << i;
  }
}

std::string sim_name(const ::testing::TestParamInfo<SimParam>& info) {
  static constexpr const char* kWorlds[] = {"AlwaysAvail", "LowAvail", "LowAvailServerFaults"};
  std::string name = to_string(std::get<0>(info.param)) + "_" +
                     to_string(std::get<1>(info.param)) + "_" +
                     kWorlds[static_cast<int>(std::get<2>(info.param))];
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    IndexedPolicies, PositionalScanReference,
    ::testing::Combine(::testing::Values(PolicyKind::kFcfsExcl, PolicyKind::kFcfsShare,
                                         PolicyKind::kRoundRobin, PolicyKind::kRoundRobinNrf),
                       // WorkQueue's threshold of 1 is what exercises the
                       // stale-pool drains end to end: every replica
                       // failure re-queues its task, and with threshold 2
                       // the picks prune the pools before a drain matters.
                       ::testing::Values(IndividualSchedulerKind::kWqrFt,
                                         IndividualSchedulerKind::kWqr,
                                         IndividualSchedulerKind::kKnowledgeBased,
                                         IndividualSchedulerKind::kWorkQueue),
                       ::testing::Values(World::kAlways, World::kLow, World::kLowServerFaults)),
    sim_name);

}  // namespace
}  // namespace dg::sched
