// Zero-allocation guarantee of the workspace replication path.
//
// This binary (dgsched_alloc_tests — separate from dgsched_tests because it
// replaces the global allocation operators) meters operator new across the
// event-loop drive of a simulation, via the before/after_run_loop hooks of
// SimulationConfig. A warmed sim::SimulationWorkspace must serve the entire
// run loop from recycled memory: reset arena slots, pooled pmr blocks, and
// retained buffer capacity — zero global heap allocations.
#include <gtest/gtest.h>

#include <cstdint>

#include "sim/simulation.hpp"
#include "sim/workspace.hpp"
#include "util/alloc_interposer.hpp"

DG_DEFINE_ALLOC_INTERPOSER();

namespace dg::sim {
namespace {

SimulationConfig metered_config(grid::AvailabilityLevel level) {
  SimulationConfig config;
  config.grid = grid::GridConfig::preset(grid::Heterogeneity::kHom, level);
  config.workload =
      make_paper_workload(config.grid, 25000.0, workload::Intensity::kLow, 10);
  config.policy = sched::PolicyKind::kFcfsShare;
  config.seed = 31337;
  return config;
}

/// Runs `config` through `workspace` and returns the operator-new calls made
/// inside the run loop (between the before/after hooks — i.e. excluding
/// setup, which constructs the per-replication components, and result
/// assembly).
std::uint64_t run_loop_allocs(const SimulationConfig& base, SimulationWorkspace& workspace) {
  SimulationConfig config = base;
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  config.before_run_loop = [&before] {
    before = util::alloc_count().load(std::memory_order_relaxed);
  };
  config.after_run_loop = [&after] {
    after = util::alloc_count().load(std::memory_order_relaxed);
  };
  const SimulationResult& result = Simulation(config).run(workspace);
  EXPECT_GT(result.events_executed, 0u);  // the loop actually did work
  // The tail-metrics columns must be live while the loop stays zero-alloc:
  // their sketches add into bucket storage retained by the workspace.
  EXPECT_GT(result.turnaround_tail.count(), 0u);
  EXPECT_GT(result.completion_gap_tail.count(), 0u);
  EXPECT_GT(result.decayed_utilization, 0.0);
  return after - before;
}

TEST(AllocationFree, WarmedWorkspaceRunLoopMakesZeroHeapAllocations) {
  // The paper's five policies and the three baselines beyond it.
  for (const sched::PolicyKind policy :
       {sched::PolicyKind::kFcfsExcl, sched::PolicyKind::kFcfsShare,
        sched::PolicyKind::kRoundRobin, sched::PolicyKind::kRoundRobinNrf,
        sched::PolicyKind::kLongIdle, sched::PolicyKind::kRandom,
        sched::PolicyKind::kShortestBagFirst, sched::PolicyKind::kPendingFirst}) {
    SCOPED_TRACE(sched::to_string(policy));
    SimulationConfig config = metered_config(grid::AvailabilityLevel::kAlways);
    config.policy = policy;
    SimulationWorkspace workspace;
    const std::uint64_t cold = run_loop_allocs(config, workspace);
    // The cold pass may allocate (arena slabs, pool chunks, monitor growth)...
    (void)cold;
    // ...but once warmed, the identical replication must not touch the heap.
    EXPECT_EQ(run_loop_allocs(config, workspace), 0u);
    EXPECT_EQ(run_loop_allocs(config, workspace), 0u);
  }
}

TEST(AllocationFree, WarmedWorkspaceIsAllocationFreeWithFailuresToo) {
  // Failures exercise the checkpoint/retrieve/restart paths; the event
  // lambdas there must stay within std::function's small-buffer size and
  // every container within the warmed pool. A finite server capacity adds
  // transfer slots, created as transfers first need them from the pool.
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE(capacity);
    SimulationConfig config = metered_config(grid::AvailabilityLevel::kHigh);
    config.grid.checkpoint_server_capacity = capacity;
    SimulationWorkspace workspace;
    (void)run_loop_allocs(config, workspace);  // warm
    EXPECT_EQ(run_loop_allocs(config, workspace), 0u);
  }
}

TEST(AllocationFree, WorldCacheReplayRunLoopIsAllocationFreeToo) {
  // The realization replay path: world synthesis and acquisition happen in
  // setup (before the hooks); the cursor driver's replay events must run the
  // loop without heap traffic, like the live processes they replace.
  SimulationConfig config = metered_config(grid::AvailabilityLevel::kHigh);
  config.world_cache = std::make_shared<grid::WorldCache>();
  SimulationWorkspace workspace;
  (void)run_loop_allocs(config, workspace);  // warm workspace + cache
  EXPECT_EQ(run_loop_allocs(config, workspace), 0u);
  EXPECT_EQ(config.world_cache->stats().hits, 1u);
}

TEST(AllocationFree, InterposerActuallyCounts) {
  const std::uint64_t before = util::alloc_count().load(std::memory_order_relaxed);
  volatile int* p = new int(7);
  delete p;
  auto* q = new double[32];
  delete[] q;
  EXPECT_GE(util::alloc_count().load(std::memory_order_relaxed), before + 2);
}

}  // namespace
}  // namespace dg::sim
