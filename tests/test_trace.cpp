// Trace substrate: availability traces (synthesis, CSV round-trip, replay)
// and workload traces.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "grid/realization.hpp"
#include "grid/trace.hpp"
#include "sim/simulation.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace dg {
namespace {

TEST(MachineTrace, AvailabilityMath) {
  grid::MachineTrace trace;
  trace.downtime = {{10.0, 20.0}, {50.0, 60.0}};
  EXPECT_DOUBLE_EQ(trace.availability(100.0), 0.8);
  EXPECT_DOUBLE_EQ(trace.availability(20.0), 0.5);  // clipped to horizon
  EXPECT_DOUBLE_EQ(trace.availability(5.0), 1.0);
}

TEST(AvailabilityTrace, SynthesizeMatchesModelAvailability) {
  const grid::AvailabilityModel model =
      grid::AvailabilityModel::for_level(grid::AvailabilityLevel::kLow);
  const double horizon = 5e6;
  const grid::AvailabilityTrace trace =
      grid::AvailabilityTrace::synthesize(model, 50, horizon, 9);
  EXPECT_EQ(trace.num_machines(), 50u);
  EXPECT_NEAR(trace.mean_availability(horizon), 0.50, 0.05);
}

TEST(AvailabilityTrace, SynthesizeNoFailuresGivesEmptyDowntime) {
  const grid::AvailabilityTrace trace = grid::AvailabilityTrace::synthesize(
      grid::AvailabilityModel::for_level(grid::AvailabilityLevel::kAlways), 5, 1e6, 1);
  for (std::size_t m = 0; m < trace.num_machines(); ++m) {
    EXPECT_TRUE(trace.machine(m).downtime.empty());
  }
  EXPECT_DOUBLE_EQ(trace.mean_availability(1e6), 1.0);
}

/// save_csv writes max_digits10 significant digits, so a round-trip must
/// reproduce every interval boundary bitwise — not merely approximately.
void expect_csv_round_trip_bit_exact(const grid::AvailabilityTrace& original) {
  std::stringstream buffer;
  original.save_csv(buffer);
  const grid::AvailabilityTrace loaded = grid::AvailabilityTrace::load_csv(buffer);
  ASSERT_EQ(loaded.num_machines(), original.num_machines());
  for (std::size_t m = 0; m < original.num_machines(); ++m) {
    SCOPED_TRACE(m);
    ASSERT_EQ(loaded.machine(m).downtime.size(), original.machine(m).downtime.size());
    for (std::size_t i = 0; i < original.machine(m).downtime.size(); ++i) {
      EXPECT_EQ(loaded.machine(m).downtime[i].start, original.machine(m).downtime[i].start);
      EXPECT_EQ(loaded.machine(m).downtime[i].end, original.machine(m).downtime[i].end);
    }
  }
}

TEST(AvailabilityTrace, CsvRoundTripIsBitExact) {
  expect_csv_round_trip_bit_exact(grid::AvailabilityTrace::synthesize(
      grid::AvailabilityModel::for_level(grid::AvailabilityLevel::kMed), 8, 2e5, 3));
}

TEST(AvailabilityTrace, CsvRoundTripIsBitExactAcrossModelsAndSeeds) {
  for (const grid::AvailabilityLevel level :
       {grid::AvailabilityLevel::kHigh, grid::AvailabilityLevel::kMed,
        grid::AvailabilityLevel::kLow}) {
    for (const std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
      SCOPED_TRACE(seed);
      expect_csv_round_trip_bit_exact(grid::AvailabilityTrace::synthesize(
          grid::AvailabilityModel::for_level(level), 6, 3e5, seed));
    }
  }
}

TEST(AvailabilityTrace, WorldRealizationTraceViewRoundTripsBitExact) {
  // The cache's realization-to-trace view feeds the same CSV path.
  const grid::GridConfig config =
      grid::GridConfig::preset(grid::Heterogeneity::kHom, grid::AvailabilityLevel::kLow);
  const grid::WorldRealization world =
      grid::WorldRealization::synthesize(config.availability, 12, 1e5, 77);
  expect_csv_round_trip_bit_exact(world.to_trace());
}

TEST(AvailabilityTrace, CsvRoundTripKeepsAlwaysUpMachines) {
  std::vector<grid::MachineTrace> machines(3);
  machines[1].downtime = {{5.0, 10.0}};
  const grid::AvailabilityTrace original{std::move(machines)};
  std::stringstream buffer;
  original.save_csv(buffer);
  const grid::AvailabilityTrace loaded = grid::AvailabilityTrace::load_csv(buffer);
  EXPECT_EQ(loaded.num_machines(), 3u);
  EXPECT_TRUE(loaded.machine(0).downtime.empty());
  EXPECT_EQ(loaded.machine(1).downtime.size(), 1u);
  EXPECT_TRUE(loaded.machine(2).downtime.empty());
}

TEST(AvailabilityTrace, LoadRejectsBadHeader) {
  std::istringstream bad("wrong,header\n0,1,2\n");
  EXPECT_THROW(grid::AvailabilityTrace::load_csv(bad), std::runtime_error);
}

TEST(AvailabilityTrace, LoadRejectsInvertedInterval) {
  std::istringstream bad("machine,down_start,down_end\n0,20,10\n");
  EXPECT_THROW(grid::AvailabilityTrace::load_csv(bad), std::runtime_error);
}

TEST(AvailabilityTrace, LoadRejectsOverlappingIntervals) {
  std::istringstream bad("machine,down_start,down_end\n0,10,20\n0,15,30\n");
  EXPECT_THROW(grid::AvailabilityTrace::load_csv(bad), std::runtime_error);
}

void expect_availability_rows_rejected(const std::string& rows) {
  std::istringstream bad("machine,down_start,down_end\n" + rows);
  EXPECT_THROW((void)grid::AvailabilityTrace::load_csv(bad), std::runtime_error);
}

TEST(AvailabilityTrace, LoadRejectsSignedMachineId) {
  // "-1" must not wrap to 2^64 - 1 and size the machine table from it.
  expect_availability_rows_rejected("-1,1,2\n");
}

TEST(AvailabilityTrace, LoadRejectsMachineIdFarPastTheHighest) {
  // One row must not size the machine table (4e9 machines: ~96 GB).
  expect_availability_rows_rejected("4000000000,1,2\n");
}

TEST(AvailabilityTrace, LoadRejectsTrailingJunkInMachineId) {
  expect_availability_rows_rejected("0,,\n1x,1,2\n");
}

TEST(AvailabilityTrace, LoadRejectsNanInterval) {
  expect_availability_rows_rejected("0,nan,nan\n");
}

TEST(AvailabilityTrace, LoadRejectsInfiniteIntervalEnd) {
  expect_availability_rows_rejected("0,1,inf\n");
}

TEST(TraceDriver, DrivesMachineTransitions) {
  des::Simulator sim;
  grid::GridConfig config;
  config.total_power = 20.0;  // 2 machines
  config.availability = grid::AvailabilityModel::for_level(grid::AvailabilityLevel::kAlways);
  grid::DesktopGrid grid(config, sim, 1);

  std::vector<grid::MachineTrace> machines(2);
  machines[0].downtime = {{100.0, 200.0}};
  machines[1].downtime = {{150.0, 250.0}, {400.0, 500.0}};
  grid::TraceAvailabilityDriver driver(sim, grid, grid::AvailabilityTrace{std::move(machines)});

  int failures = 0, repairs = 0;
  auto on_fail = [&](grid::Machine&) { ++failures; };
  auto on_repair = [&](grid::Machine&) { ++repairs; };
  driver.start(on_fail, on_repair);
  grid.start(nullptr, nullptr);

  sim.run_until(120.0);
  EXPECT_FALSE(grid.machine(0).up());
  EXPECT_TRUE(grid.machine(1).up());
  sim.run_until(220.0);
  EXPECT_TRUE(grid.machine(0).up());
  EXPECT_FALSE(grid.machine(1).up());
  sim.run_until(1000.0);
  EXPECT_EQ(failures, 3);
  EXPECT_EQ(repairs, 3);
  EXPECT_EQ(grid.machine(1).failures(), 2u);
}

// --- workload traces ---

TEST(WorkloadTrace, CsvRoundTrip) {
  workload::WorkloadConfig config;
  config.types = {workload::BotType{5000.0, 0.5}};
  config.bag_size = 1e5;
  config.arrival_rate = 1e-3;
  config.num_bots = 7;
  workload::WorkloadGenerator generator(config, rng::RandomStream(5));
  const std::vector<workload::BotSpec> original = generator.generate();

  std::stringstream buffer;
  workload::save_workload_csv(buffer, original);
  const std::vector<workload::BotSpec> loaded = workload::load_workload_csv(buffer);

  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].id, original[i].id);
    EXPECT_NEAR(loaded[i].arrival_time, original[i].arrival_time,
                1e-6 * original[i].arrival_time);
    ASSERT_EQ(loaded[i].tasks.size(), original[i].tasks.size());
    for (std::size_t t = 0; t < original[i].tasks.size(); ++t) {
      EXPECT_NEAR(loaded[i].tasks[t].work, original[i].tasks[t].work,
                  1e-6 * original[i].tasks[t].work);
    }
  }
}

TEST(WorkloadTrace, LoadSortsByArrival) {
  std::istringstream csv(
      "bot,arrival,granularity,task,work\n"
      "1,500,100,0,100\n"
      "0,100,100,0,100\n");
  const auto bots = workload::load_workload_csv(csv);
  ASSERT_EQ(bots.size(), 2u);
  EXPECT_EQ(bots[0].id, 0u);
  EXPECT_EQ(bots[1].id, 1u);
}

TEST(WorkloadTrace, LoadRejectsBadHeader) {
  std::istringstream bad("nope\n");
  EXPECT_THROW(workload::load_workload_csv(bad), std::runtime_error);
}

TEST(WorkloadTrace, LoadRejectsNonPositiveWork) {
  std::istringstream bad("bot,arrival,granularity,task,work\n0,0,100,0,-5\n");
  EXPECT_THROW(workload::load_workload_csv(bad), std::runtime_error);
}

TEST(WorkloadTrace, LoadRejectsTaskIndexGaps) {
  std::istringstream bad("bot,arrival,granularity,task,work\n0,0,100,0,10\n0,0,100,2,10\n");
  EXPECT_THROW(workload::load_workload_csv(bad), std::runtime_error);
}

void expect_workload_rows_rejected(const std::string& rows) {
  std::istringstream bad("bot,arrival,granularity,task,work\n" + rows);
  EXPECT_THROW((void)workload::load_workload_csv(bad), std::runtime_error);
}

TEST(WorkloadTrace, LoadRejectsSignedTaskIndex) {
  // "-1" must not wrap to 2^64 - 1 and size the task table from it.
  expect_workload_rows_rejected("0,0,100,-1,10\n");
}

TEST(WorkloadTrace, LoadRejectsTaskIndexFarPastTheHighest) {
  // One row must not size the task table (3e9 tasks: ~24 GB).
  expect_workload_rows_rejected("0,0,100,3000000000,10\n");
}

TEST(WorkloadTrace, LoadRejectsSignedBagId) {
  // "-1" must not load as bag 4294967295.
  expect_workload_rows_rejected("-1,0,100,0,10\n");
}

TEST(WorkloadTrace, LoadRejectsNanArrival) {
  expect_workload_rows_rejected("0,nan,100,0,10\n");
}

TEST(WorkloadTrace, LoadRejectsNanWork) {
  // NaN compares false with everything, so `work <= 0` alone lets it through.
  expect_workload_rows_rejected("0,0,100,0,nan\n");
}

TEST(WorkloadTrace, LoadRejectsInfiniteGranularity) {
  expect_workload_rows_rejected("0,0,inf,0,10\n");
}

// --- trace-driven Simulation ---

TEST(TraceSimulation, ReplaysIdenticallyAcrossPolicies) {
  const grid::GridConfig grid_config =
      grid::GridConfig::preset(grid::Heterogeneity::kHom, grid::AvailabilityLevel::kLow);
  auto trace = std::make_shared<grid::AvailabilityTrace>(
      grid::AvailabilityTrace::synthesize(grid_config.availability, 100, 1e6, 17));
  workload::WorkloadConfig workload_config =
      sim::make_paper_workload(grid_config, 25000.0, workload::Intensity::kLow, 10);
  workload::WorkloadGenerator generator(workload_config, rng::RandomStream(17));
  auto bots = std::make_shared<std::vector<workload::BotSpec>>(generator.generate());

  auto run = [&](sched::PolicyKind policy) {
    sim::SimulationConfig config;
    config.grid = grid_config;
    config.workload = workload_config;
    config.trace_bots = bots;
    config.availability_trace = trace;
    config.policy = policy;
    config.seed = 3;
    return sim::Simulation(config).run();
  };

  const sim::SimulationResult a = run(sched::PolicyKind::kFcfsShare);
  const sim::SimulationResult b = run(sched::PolicyKind::kFcfsShare);
  EXPECT_EQ(a.turnaround.mean(), b.turnaround.mean());
  EXPECT_EQ(a.machine_failures, b.machine_failures);
  EXPECT_EQ(a.end_time, b.end_time);

  // A different policy replays the SAME downtime timeline (the paired
  // comparison); only the observation window differs (each run stops when
  // its last bag completes), so failure counts scale with the end time.
  const sim::SimulationResult c = run(sched::PolicyKind::kRoundRobin);
  EXPECT_GT(c.machine_failures, 0u);
  EXPECT_NE(a.turnaround.mean(), c.turnaround.mean());
  const double a_rate = static_cast<double>(a.machine_failures) / a.end_time;
  const double c_rate = static_cast<double>(c.machine_failures) / c.end_time;
  EXPECT_NEAR(a_rate / c_rate, 1.0, 0.2);
}

TEST(TraceSimulation, BagIdsMustBeArrivalIndices) {
  // The dispatch index and the policies' tie-breaks order bags by id, so a
  // bag's id must be its arrival index. Reversed or sparse ids, and
  // arrivals out of vector order, are rejected up front.
  const grid::GridConfig grid_config =
      grid::GridConfig::preset(grid::Heterogeneity::kHom, grid::AvailabilityLevel::kHigh);
  const workload::WorkloadConfig workload_config =
      sim::make_paper_workload(grid_config, 25000.0, workload::Intensity::kLow, 6);
  workload::WorkloadGenerator generator(workload_config, rng::RandomStream(5));
  const auto bots = std::make_shared<std::vector<workload::BotSpec>>(generator.generate());
  sim::SimulationConfig config;
  config.grid = grid_config;
  config.workload = workload_config;
  config.trace_bots = bots;
  config.policy = sched::PolicyKind::kRoundRobin;
  config.seed = 3;
  EXPECT_EQ(sim::Simulation(config).run().bots_completed, bots->size());

  const auto rejected = [&config](std::vector<workload::BotSpec> specs) {
    config.trace_bots = std::make_shared<std::vector<workload::BotSpec>>(std::move(specs));
    EXPECT_THROW((void)sim::Simulation(config).run(), std::invalid_argument);
  };
  std::vector<workload::BotSpec> reversed = *bots;
  for (std::size_t i = 0; i < reversed.size(); ++i) {
    reversed[i].id = static_cast<workload::BotId>(reversed.size() - 1 - i);
  }
  rejected(reversed);
  std::vector<workload::BotSpec> sparse = *bots;
  sparse.back().id = 1000000;
  rejected(sparse);
  std::vector<workload::BotSpec> out_of_order = *bots;
  std::swap(out_of_order[1].arrival_time, out_of_order[2].arrival_time);
  rejected(out_of_order);
}

TEST(TraceSimulation, FcfsShareServesACsvTraceInArrivalOrder) {
  // File bag 1 arrives first. Loading renumbers the bags by arrival, so
  // FCFS-Share gives both machines to the first arrival until it has no
  // task left: four 1000 s tasks on two machines finish it at 2000, and the
  // second bag then runs until 4000. Numbered by file id, the machines freed
  // at 1000 went to the later bag instead.
  std::string rows = "bot,arrival,granularity,task,work\n";
  for (const char* bag : {"1,0", "0,1"}) {
    for (int task = 0; task < 4; ++task) {
      rows += std::string(bag) + ",10000," + std::to_string(task) + ",10000\n";
    }
  }
  std::istringstream csv(rows);
  const auto bots =
      std::make_shared<std::vector<workload::BotSpec>>(workload::load_workload_csv(csv));
  ASSERT_EQ(bots->size(), 2u);
  EXPECT_EQ((*bots)[0].id, 0u);
  EXPECT_EQ((*bots)[0].arrival_time, 0.0);
  EXPECT_EQ((*bots)[1].id, 1u);
  EXPECT_EQ((*bots)[1].arrival_time, 1.0);

  sim::SimulationConfig config;
  config.grid = grid::GridConfig::preset(grid::Heterogeneity::kHom,
                                         grid::AvailabilityLevel::kAlways);
  config.grid.total_power = 20.0;  // two machines of power 10
  config.trace_bots = bots;
  config.policy = sched::PolicyKind::kFcfsShare;
  config.individual = sched::IndividualSchedulerKind::kWorkQueue;
  const sim::SimulationResult result = sim::Simulation(config).run();
  ASSERT_EQ(result.bots.size(), 2u);
  EXPECT_EQ(result.bots[0].arrival_time, 0.0);
  EXPECT_EQ(result.bots[0].completion_time, 2000.0);
  EXPECT_EQ(result.bots[1].completion_time, 4000.0);
}

TEST(TraceSimulation, CompletesAndUsesCheckpointing) {
  const grid::GridConfig grid_config =
      grid::GridConfig::preset(grid::Heterogeneity::kHom, grid::AvailabilityLevel::kLow);
  auto trace = std::make_shared<grid::AvailabilityTrace>(
      grid::AvailabilityTrace::synthesize(grid_config.availability, 100, 2e6, 23));
  sim::SimulationConfig config;
  config.grid = grid_config;
  config.workload = sim::make_paper_workload(grid_config, 25000.0,
                                             workload::Intensity::kLow, 8);
  config.availability_trace = trace;
  config.policy = sched::PolicyKind::kRoundRobin;
  config.seed = 5;
  const sim::SimulationResult result = sim::Simulation(config).run();
  EXPECT_EQ(result.bots_completed, result.bots.size());
  EXPECT_GT(result.machine_failures, 0u);
  EXPECT_GT(result.checkpoints_saved, 0u);  // WQR-FT checkpoints under a trace too
}

}  // namespace
}  // namespace dg
