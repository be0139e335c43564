// Workspace reuse: simulator reset semantics and the bit-identity of
// replications run through a (warmed) sim::SimulationWorkspace vs the
// historical fresh-construction path, across the policy/availability stress
// matrix.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <vector>

#include "des/simulator.hpp"
#include "sim/simulation.hpp"
#include "sim/workspace.hpp"

namespace dg::des {
namespace {

TEST(SimulatorReset, RewindsClockAndRunsIdentically) {
  Simulator sim;
  auto drive = [&sim] {
    std::vector<int> order;
    sim.schedule_at(2.0, [&order] { order.push_back(2); });
    sim.schedule_at(1.0, [&order] { order.push_back(1); });
    sim.schedule_at(1.0, [&order] { order.push_back(3); });  // FIFO within a time
    sim.run();
    return order;
  };
  const std::vector<int> first = drive();
  EXPECT_EQ(sim.now(), 2.0);

  sim.reset();
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_FALSE(sim.stopped());
  EXPECT_EQ(sim.executed_events(), 0u);  // stats rewound with the clock

  const std::vector<int> second = drive();
  EXPECT_EQ(first, second);
}

TEST(SimulatorReset, StaleHandlesFromBeforeResetAreInert) {
  Simulator sim;
  EventHandle pending = sim.schedule_at(5.0, [] { FAIL() << "event survived reset"; });
  sim.reset();
  EXPECT_FALSE(sim.pending(pending));
  EXPECT_FALSE(sim.cancel(pending));  // must not touch the recycled slot

  // The slot is recycled by the next schedule; the stale handle still must
  // not be able to cancel the new occupant.
  bool ran = false;
  EXPECT_EQ(sim.schedule_at(1.0, [&ran] { ran = true; }).slot, pending.slot);
  EXPECT_FALSE(sim.cancel(pending));
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(SimulatorReset, HandsSlotsOutInAscendingOrder) {
  Simulator sim;
  for (int i = 0; i < 1500; ++i) sim.schedule_at(1.0, [] {});
  // Firing in time order retires the slots, leaving the free list in firing
  // order reversed; reset() must rebuild it in the order a fresh simulator
  // hands slots out.
  sim.run();
  sim.reset();
  for (std::uint32_t i = 0; i < 1500; ++i) {
    ASSERT_EQ(sim.schedule_at(1.0, [] {}).slot, i);
  }
  sim.run();
  EXPECT_EQ(sim.stats().events_fired, 1500u);
}

}  // namespace
}  // namespace dg::des

namespace dg::sim {
namespace {

SimulationConfig matrix_config(sched::PolicyKind policy, grid::AvailabilityLevel level,
                               double granularity) {
  SimulationConfig config;
  config.grid = grid::GridConfig::preset(grid::Heterogeneity::kHet, level);
  config.workload =
      make_paper_workload(config.grid, granularity, workload::Intensity::kLow, 10);
  config.policy = policy;
  config.warmup_bots = 2;
  config.seed = 4242;
  return config;
}

/// Full semantic equality of two results.
void expect_identical(const SimulationResult& a, const SimulationResult& b) {
  ASSERT_EQ(a.bots.size(), b.bots.size());
  for (std::size_t i = 0; i < a.bots.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.bots[i].id, b.bots[i].id);
    EXPECT_EQ(a.bots[i].arrival_time, b.bots[i].arrival_time);
    EXPECT_EQ(a.bots[i].first_dispatch_time, b.bots[i].first_dispatch_time);
    EXPECT_EQ(a.bots[i].completion_time, b.bots[i].completion_time);
    EXPECT_EQ(a.bots[i].turnaround, b.bots[i].turnaround);
    EXPECT_EQ(a.bots[i].waiting_time, b.bots[i].waiting_time);
    EXPECT_EQ(a.bots[i].makespan, b.bots[i].makespan);
    EXPECT_EQ(a.bots[i].slowdown, b.bots[i].slowdown);
    EXPECT_EQ(a.bots[i].completed, b.bots[i].completed);
  }
  EXPECT_EQ(a.turnaround.mean(), b.turnaround.mean());
  EXPECT_EQ(a.turnaround.count(), b.turnaround.count());
  EXPECT_EQ(a.waiting.mean(), b.waiting.mean());
  EXPECT_EQ(a.makespan.mean(), b.makespan.mean());
  EXPECT_EQ(a.slowdown.mean(), b.slowdown.mean());
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.queue_growth_ratio, b.queue_growth_ratio);
  ASSERT_EQ(a.monitor.size(), b.monitor.size());
  for (std::size_t i = 0; i < a.monitor.size(); ++i) {
    EXPECT_EQ(a.monitor[i].time, b.monitor[i].time);
    EXPECT_EQ(a.monitor[i].active_bots, b.monitor[i].active_bots);
    EXPECT_EQ(a.monitor[i].busy_machines, b.monitor[i].busy_machines);
    EXPECT_EQ(a.monitor[i].up_machines, b.monitor[i].up_machines);
  }
  EXPECT_EQ(a.bots_completed, b.bots_completed);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.measured_availability, b.measured_availability);
  EXPECT_EQ(a.num_machines, b.num_machines);
  EXPECT_EQ(a.machine_failures, b.machine_failures);
  EXPECT_EQ(a.replica_failures, b.replica_failures);
  EXPECT_EQ(a.replicas_started, b.replicas_started);
  EXPECT_EQ(a.tasks_completed, b.tasks_completed);
  EXPECT_EQ(a.checkpoints_saved, b.checkpoints_saved);
  EXPECT_EQ(a.checkpoint_retrievals, b.checkpoint_retrievals);
  EXPECT_EQ(a.wasted_compute_time, b.wasted_compute_time);
  EXPECT_EQ(a.useful_compute_time, b.useful_compute_time);
  EXPECT_EQ(a.lost_work, b.lost_work);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.kernel, b.kernel);
  EXPECT_EQ(a.sched.triggers, b.sched.triggers);
  EXPECT_EQ(a.sched.machines_examined, b.sched.machines_examined);
  EXPECT_EQ(a.sched.selects, b.sched.selects);
  EXPECT_EQ(a.sched.index_updates, b.sched.index_updates);
  EXPECT_EQ(a.sched.index_rebuilds, b.sched.index_rebuilds);
  EXPECT_EQ(a.faults.server_outages, b.faults.server_outages);
  EXPECT_EQ(a.faults.server_downtime, b.faults.server_downtime);
  EXPECT_EQ(a.faults.transfer_retries, b.faults.transfer_retries);
  EXPECT_EQ(a.faults.replicas_degraded, b.faults.replicas_degraded);
}

struct MatrixParam {
  sched::PolicyKind policy;
  grid::AvailabilityLevel availability;
  double granularity;
};

// Without a printer gtest writes the parameter's raw bytes, padding
// included, into every test name ctest discovers; print the fields instead,
// so the names are the same from build to build.
void PrintTo(const MatrixParam& param, std::ostream* os) {
  *os << sched::to_string(param.policy) << ' ' << grid::to_string(param.availability) << " g="
      << param.granularity;
}

class WorkspaceReuseTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(WorkspaceReuseTest, WarmedWorkspaceIsBitIdenticalToFreshConstruction) {
  const MatrixParam& param = GetParam();
  SimulationConfig config =
      matrix_config(param.policy, param.availability, param.granularity);

  const SimulationResult fresh = Simulation(config).run();

  SimulationWorkspace workspace;
  // Warm the workspace on a DIFFERENT configuration first so the test also
  // proves no state leaks between unrelated runs through the same workspace.
  SimulationConfig warmer =
      matrix_config(sched::PolicyKind::kRoundRobin,
                    param.availability == grid::AvailabilityLevel::kAlways
                        ? grid::AvailabilityLevel::kLow
                        : grid::AvailabilityLevel::kAlways,
                    25000.0);
  warmer.seed = 99;
  (void)Simulation(warmer).run(workspace);

  const SimulationResult& reused = Simulation(config).run(workspace);
  expect_identical(fresh, reused);

  // And again: the second warm replication of the same config must match too.
  const SimulationResult& reused_again = Simulation(config).run(workspace);
  expect_identical(fresh, reused_again);
}

INSTANTIATE_TEST_SUITE_P(
    StressMatrix, WorkspaceReuseTest,
    ::testing::Values(
        MatrixParam{sched::PolicyKind::kFcfsExcl, grid::AvailabilityLevel::kAlways, 25000.0},
        MatrixParam{sched::PolicyKind::kFcfsShare, grid::AvailabilityLevel::kHigh, 5000.0},
        MatrixParam{sched::PolicyKind::kRoundRobin, grid::AvailabilityLevel::kLow, 25000.0},
        MatrixParam{sched::PolicyKind::kRoundRobinNrf, grid::AvailabilityLevel::kHigh, 125000.0},
        MatrixParam{sched::PolicyKind::kLongIdle, grid::AvailabilityLevel::kLow, 5000.0},
        MatrixParam{sched::PolicyKind::kRandom, grid::AvailabilityLevel::kHigh, 25000.0},
        MatrixParam{sched::PolicyKind::kShortestBagFirst, grid::AvailabilityLevel::kLow, 25000.0},
        MatrixParam{sched::PolicyKind::kPendingFirst, grid::AvailabilityLevel::kHigh, 5000.0}),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      std::string name = sched::to_string(info.param.policy) + "_" +
                         grid::to_string(info.param.availability) + "_g" +
                         std::to_string(static_cast<int>(info.param.granularity));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(WorkspaceLifecycle, BeginReplicationCountsAndClears) {
  SimulationWorkspace workspace;
  EXPECT_EQ(workspace.replications(), 0u);
  SimulationConfig config =
      matrix_config(sched::PolicyKind::kFcfsShare, grid::AvailabilityLevel::kAlways, 25000.0);
  const SimulationResult& first = Simulation(config).run(workspace);
  EXPECT_EQ(workspace.replications(), 1u);
  EXPECT_FALSE(first.bots.empty());
  const std::size_t monitor_capacity = workspace.result().monitor.capacity();

  const SimulationResult& second = Simulation(config).run(workspace);
  EXPECT_EQ(workspace.replications(), 2u);
  // Buffers were reused, not reallocated: same capacity serves the rerun.
  EXPECT_EQ(workspace.result().monitor.capacity(), monitor_capacity);
  EXPECT_FALSE(second.bots.empty());
}

}  // namespace
}  // namespace dg::sim
