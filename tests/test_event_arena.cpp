// The simulator's event slot table + generation-counted handles: slot
// recycling, stale-handle rejection, growth behavior under large bursts, and
// KernelStats plumbing through the sim layer.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "des/simulator.hpp"
#include "sim/observer.hpp"
#include "sim/simulation.hpp"

namespace dg::des {
namespace {

TEST(EventArena, StaleHandleCannotCancelSlotReuser) {
  // With a LIFO free list, cancelling the only event and scheduling a new
  // one reuses the same slot; the stale handle's generation must not match.
  Simulator sim;
  EventHandle stale = sim.schedule_at(1.0, [] { FAIL() << "cancelled event ran"; });
  ASSERT_TRUE(sim.cancel(stale));

  bool ran = false;
  EventHandle fresh = sim.schedule_at(2.0, [&ran] { ran = true; });
  EXPECT_EQ(fresh.slot, stale.slot);
  EXPECT_FALSE(sim.pending(stale));
  EXPECT_FALSE(sim.cancel(stale));  // must NOT kill the recycled slot's new event
  EXPECT_TRUE(sim.pending(fresh));

  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.executed_events(), 1u);
  EXPECT_EQ(sim.stats().events_cancelled, 1u);
}

TEST(EventArena, EveryGenerationOfAReusedSlotIsDistinct) {
  Simulator sim;
  std::vector<EventHandle> stale;
  for (int i = 0; i < 100; ++i) {
    EventHandle handle = sim.schedule_at(1.0, [] {});
    stale.push_back(handle);
    ASSERT_TRUE(sim.cancel(handle));
  }
  bool ran = false;
  EventHandle live = sim.schedule_at(1.0, [&ran] { ran = true; });
  for (const EventHandle& handle : stale) {
    EXPECT_FALSE(sim.pending(handle));
    EXPECT_FALSE(sim.cancel(handle));
  }
  EXPECT_TRUE(sim.pending(live));
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(EventArena, StaleHandleAfterExecutionCannotCancelReuser) {
  Simulator sim;
  EventHandle first = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.pending(first));

  bool ran = false;
  sim.schedule_at(2.0, [&ran] { ran = true; });  // reuses the retired slot
  EXPECT_FALSE(sim.cancel(first));
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(EventArena, ScheduleCancelChurnReusesOneSlot) {
  // Recycling means unbounded schedule/cancel churn with one live event
  // never grows the table past its first slot.
  Simulator sim;
  for (int i = 0; i < 10000; ++i) {
    EventHandle handle = sim.schedule_at(1.0, [] {});
    ASSERT_EQ(handle.slot, 0u);
    ASSERT_TRUE(sim.cancel(handle));
  }
  const KernelStats& stats = sim.stats();
  EXPECT_EQ(stats.events_scheduled, 10000u);
  EXPECT_EQ(stats.events_cancelled, 10000u);
  EXPECT_EQ(stats.events_fired, 0u);
}

TEST(EventArena, MillionEventBurstGrowsThenRecycles) {
  constexpr std::uint64_t kBurst = 1000000;
  Simulator sim;
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    const EventHandle handle =
        sim.schedule_at(static_cast<double>((i * 7919) % kBurst), [&sum] { ++sum; });
    ASSERT_EQ(handle.slot, i);  // a growing table hands out ascending slots
  }
  EXPECT_EQ(sim.stats().heap_peak, kBurst);

  sim.run();
  EXPECT_EQ(sum, kBurst);
  EXPECT_EQ(sim.executed_events(), kBurst);
  EXPECT_TRUE(sim.empty());

  // A second burst of the same size reuses the retired slots: zero growth.
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    ASSERT_LT(sim.schedule_after(1.0, [&sum] { ++sum; }).slot, kBurst);
  }
  sim.run();
  EXPECT_EQ(sum, 2 * kBurst);
}

TEST(EventArena, KernelStatsArithmetic) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(sim.schedule_at(static_cast<double>(i + 1), [] {}));
  }
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(sim.cancel(handles[static_cast<std::size_t>(i)]));
  sim.run();
  const KernelStats& stats = sim.stats();
  EXPECT_EQ(stats.events_scheduled, 10u);
  EXPECT_EQ(stats.events_cancelled, 3u);
  EXPECT_EQ(stats.events_fired, 7u);
  EXPECT_EQ(stats.heap_peak, 10u);
  EXPECT_EQ(sim.scheduled_events(), 10u);
  EXPECT_EQ(sim.executed_events(), 7u);
}

// --- KernelStats plumbing through the sim layer -----------------------------

class KernelStatsProbe final : public sim::SimulationObserver {
 public:
  void on_run_finished(const KernelStats& kernel, const sched::SchedStats& sched,
                       const sim::FaultStats& faults, double now) override {
    kernel_ = kernel;
    sched_ = sched;
    faults_ = faults;
    finished_at_ = now;
    ++calls_;
  }

  KernelStats kernel_;
  sched::SchedStats sched_;
  sim::FaultStats faults_;
  double finished_at_ = -1.0;
  int calls_ = 0;
};

TEST(KernelStatsPlumbing, ResultAndObserverSeeTheSameCounters) {
  sim::SimulationConfig config;
  config.grid = grid::GridConfig::preset(grid::Heterogeneity::kHom,
                                         grid::AvailabilityLevel::kHigh);
  config.workload =
      sim::make_paper_workload(config.grid, 25000.0, workload::Intensity::kLow, 4);
  config.seed = 5;

  KernelStatsProbe probe;
  const sim::SimulationResult result = sim::Simulation(config).run(&probe);

  EXPECT_EQ(probe.calls_, 1);
  EXPECT_EQ(probe.finished_at_, result.end_time);
  EXPECT_EQ(probe.kernel_.events_fired, result.events_executed);
  EXPECT_EQ(result.kernel.events_fired, result.events_executed);
  // fired + cancelled never exceeds scheduled; the remainder is still
  // pending at the horizon.
  EXPECT_GE(result.kernel.events_scheduled,
            result.kernel.events_fired + result.kernel.events_cancelled);
  EXPECT_GT(result.kernel.heap_peak, 0u);
  // SchedStats rides along on the same hook and in the result.
  EXPECT_EQ(probe.sched_.triggers, result.sched.triggers);
  EXPECT_EQ(probe.sched_.selects, result.sched.selects);
  EXPECT_GT(result.sched.triggers, 0u);
  EXPECT_GE(result.sched.selects, result.replicas_started);
  EXPECT_GE(result.sched.machines_examined, result.sched.selects);
}

}  // namespace
}  // namespace dg::des
