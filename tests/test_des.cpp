// DES kernel: event ordering, cancellation, determinism, clock semantics.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "des/simulator.hpp"

namespace dg::des {
namespace {

// An action is three words with no destructor. A closure that does not fit
// its two words of inline storage, or that owns a resource, does not compile.
using TwoWordClosure = decltype([a = 0L, b = 0L] { return a + b; });
using ThreeWordClosure = decltype([a = 0L, b = 0L, c = 0L] { return a + b + c; });
static_assert(std::is_trivially_copyable_v<Action>);
static_assert(sizeof(Action) == 3 * sizeof(void*));
static_assert(std::is_constructible_v<Action, TwoWordClosure>);
static_assert(!std::is_constructible_v<Action, ThreeWordClosure>);
static_assert(!std::is_constructible_v<Action, std::function<void()>>);

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30.0, [&] { order.push_back(3); });
  sim.schedule_at(10.0, [&] { order.push_back(1); });
  sim.schedule_at(20.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30.0);
}

TEST(Simulator, EqualTimesRunInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_after(42.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 42.5);
}

TEST(Simulator, EventsCanScheduleFurtherEvents) {
  struct Chain {
    Simulator sim;
    std::vector<double> times;
    void fire() {
      times.push_back(sim.now());
      if (times.size() < 5) sim.schedule_after(10.0, [this] { fire(); });
    }
  } chain;
  chain.sim.schedule_after(10.0, [&chain] { chain.fire(); });
  chain.sim.run();
  EXPECT_EQ(chain.times, (std::vector<double>{10, 20, 30, 40, 50}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventHandle handle = sim.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.pending(handle));
  EXPECT_TRUE(sim.cancel(handle));
  EXPECT_FALSE(sim.pending(handle));
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(Simulator, CancelTwiceReturnsFalse) {
  Simulator sim;
  EventHandle handle = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.cancel(handle));
  EXPECT_FALSE(sim.cancel(handle));
}

TEST(Simulator, CancelAfterExecutionReturnsFalse) {
  Simulator sim;
  EventHandle handle = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.pending(handle));
  EXPECT_FALSE(sim.cancel(handle));
}

TEST(Simulator, HandleNotPendingDuringOwnExecution) {
  struct Probe {
    Simulator sim;
    EventHandle handle;
    bool pending_inside = true;
  } probe;
  probe.handle = probe.sim.schedule_at(
      1.0, [&probe] { probe.pending_inside = probe.sim.pending(probe.handle); });
  probe.sim.run();
  EXPECT_FALSE(probe.pending_inside);
}

TEST(Simulator, CancelledEventBetweenOthersPreservesOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  EventHandle middle = sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.cancel(middle);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, StopHaltsExecution) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(i, [&] {
      ++count;
      if (count == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(sim.stopped());
  sim.clear_stop();
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, RunUntilExecutesOnlyUpToHorizon) {
  Simulator sim;
  std::vector<double> times;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule_at(t, [&times, &sim] { times.push_back(sim.now()); });
  }
  sim.run_until(2.5);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(sim.now(), 2.5);
  sim.run_until(10.0);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  EXPECT_EQ(sim.now(), 10.0);
}

TEST(Simulator, RunUntilIncludesEventsExactlyAtHorizon) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(5.0, [&] { ran = true; });
  sim.run_until(5.0);
  EXPECT_TRUE(ran);
}

TEST(Simulator, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  sim.run_until(123.0);
  EXPECT_EQ(sim.now(), 123.0);
}

TEST(Simulator, PendingEventCountTracksQueue) {
  Simulator sim;
  EventHandle a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(Simulator, ScheduleAtCurrentTimeRunsAfterCurrentEvent) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(1);
    sim.schedule_at(sim.now(), [&] { order.push_back(2); });
  });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Simulator, ZeroDelayScheduleAfter) {
  Simulator sim;
  int value = 0;
  sim.schedule_after(0.0, [&] { value = 7; });
  sim.run();
  EXPECT_EQ(value, 7);
  EXPECT_EQ(sim.now(), 0.0);
}

TEST(EventHandle, DefaultConstructedIsInert) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  const EventHandle handle;
  EXPECT_FALSE(sim.pending(handle));
  EXPECT_FALSE(sim.cancel(handle));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(EventHandle, SlotPastThisSimulatorsTableIsInert) {
  // A handle is valid only with the simulator that issued it, but one whose
  // slot lies past this simulator's table must still be rejected safely.
  Simulator larger;
  EventHandle far;
  for (int i = 0; i < 8; ++i) far = larger.schedule_at(1.0, [] {});
  ASSERT_TRUE(larger.pending(far));

  Simulator smaller;
  smaller.schedule_at(1.0, [] {});
  EXPECT_FALSE(smaller.pending(far));
  EXPECT_FALSE(smaller.cancel(far));
  EXPECT_EQ(smaller.pending_events(), 1u);
  EXPECT_EQ(smaller.stats().events_cancelled, 0u);
}

TEST(SimulatorDeath, SchedulingInThePastAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.schedule_at(10.0, [] {});
        sim.run();
        sim.schedule_at(5.0, [] {});
      },
      "past");
}

TEST(SimulatorDeath, NegativeDelayAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.schedule_after(-1.0, [] {});
      },
      "past");
}

TEST(SimulatorDeath, NonFiniteTimeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.schedule_at(std::numeric_limits<double>::infinity(), [] {});
      },
      "finite");
}

TEST(Simulator, RescheduleAfterStopAndClear) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, [&] {
    ++count;
    sim.stop();
  });
  sim.run();
  EXPECT_EQ(count, 1);
  sim.clear_stop();
  sim.schedule_after(1.0, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 2.0);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  struct Order {
    double last = -1.0;
    bool monotone = true;
  } order;
  for (int i = 0; i < 10000; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    sim.schedule_at(t, [&order, t] {
      if (t < order.last) order.monotone = false;
      order.last = t;
    });
  }
  sim.run();
  EXPECT_TRUE(order.monotone);
  EXPECT_EQ(sim.executed_events(), 10000u);
}

}  // namespace
}  // namespace dg::des
