// Desktop Grid model: machine population, availability processes,
// checkpoint server, configuration presets.
#include <gtest/gtest.h>

#include <cmath>

#include "des/simulator.hpp"
#include "grid/availability.hpp"
#include "grid/checkpoint_server.hpp"
#include "grid/desktop_grid.hpp"
#include "rng/random_stream.hpp"
#include "sim/simulation.hpp"

namespace dg::grid {
namespace {

TEST(Machine, StartsUpAndIdle) {
  Machine machine(0, 10.0);
  EXPECT_TRUE(machine.up());
  EXPECT_TRUE(machine.available());
  EXPECT_FALSE(machine.busy());
  EXPECT_EQ(machine.failures(), 0u);
}

TEST(Machine, BusyMachineNotAvailable) {
  Machine machine(0, 10.0);
  machine.set_busy(true);
  EXPECT_TRUE(machine.up());
  EXPECT_FALSE(machine.available());
}

TEST(Machine, DownMachineNotAvailable) {
  Machine machine(0, 10.0);
  EXPECT_TRUE(machine.force_down(5.0));
  EXPECT_FALSE(machine.up());
  EXPECT_FALSE(machine.available());
  EXPECT_EQ(machine.state(), MachineState::kDown);
}

TEST(Machine, DownCausesCompose) {
  // Two overlapping down-causes (own crash + correlated outage): the machine
  // comes back only when both are released, and only edges report true.
  Machine machine(0, 10.0);
  EXPECT_TRUE(machine.force_down(10.0));
  EXPECT_FALSE(machine.force_down(20.0));  // second cause: no new edge
  EXPECT_EQ(machine.failures(), 1u);
  EXPECT_FALSE(machine.release_down(30.0));  // one cause remains
  EXPECT_FALSE(machine.up());
  EXPECT_TRUE(machine.release_down(50.0));
  EXPECT_TRUE(machine.up());
  // Downtime spans [10, 50] regardless of the inner cause timing.
  EXPECT_NEAR(machine.measured_availability(100.0), 0.6, 1e-12);
}

TEST(Machine, MeasuredAvailabilityTracksDowntime) {
  Machine machine(0, 10.0);
  EXPECT_DOUBLE_EQ(machine.measured_availability(100.0), 1.0);
  machine.force_down(100.0);
  EXPECT_NEAR(machine.measured_availability(200.0), 0.5, 1e-12);  // still down
  machine.release_down(150.0);
  EXPECT_NEAR(machine.measured_availability(200.0), 0.75, 1e-12);
}

// --- availability model ---

TEST(AvailabilityModel, TargetsAreMet) {
  EXPECT_NEAR(AvailabilityModel::for_level(AvailabilityLevel::kHigh).availability(), 0.98, 1e-9);
  EXPECT_NEAR(AvailabilityModel::for_level(AvailabilityLevel::kMed).availability(), 0.75, 1e-9);
  EXPECT_NEAR(AvailabilityModel::for_level(AvailabilityLevel::kLow).availability(), 0.50, 1e-9);
  EXPECT_EQ(AvailabilityModel::for_level(AvailabilityLevel::kAlways).availability(), 1.0);
}

TEST(AvailabilityModel, HighAvailMttfIs49RepairTimes) {
  const AvailabilityModel model = AvailabilityModel::for_level(AvailabilityLevel::kHigh);
  // MTTF = A/(1-A) * MTTR = 49 * 1800.
  EXPECT_NEAR(model.mttf(), 49.0 * 1800.0, 1.0);
  EXPECT_NEAR(model.mttr(), 1800.0, 1e-9);
}

TEST(AvailabilityModel, LowAvailMttfEqualsMttr) {
  const AvailabilityModel model = AvailabilityModel::for_level(AvailabilityLevel::kLow);
  EXPECT_NEAR(model.mttf(), 1800.0, 1.0);
}

TEST(AvailabilityModel, InvalidTargetThrows) {
  EXPECT_THROW(AvailabilityModel::from_availability(0.0), std::invalid_argument);
  EXPECT_THROW(AvailabilityModel::from_availability(1.0), std::invalid_argument);
}

TEST(AvailabilityModel, LevelNames) {
  EXPECT_EQ(to_string(AvailabilityLevel::kHigh), "HighAvail");
  EXPECT_EQ(to_string(AvailabilityLevel::kMed), "MedAvail");
  EXPECT_EQ(to_string(AvailabilityLevel::kLow), "LowAvail");
}

TEST(AvailabilityProcess, MachineAlternatesUpDown) {
  des::Simulator sim;
  Machine machine(0, 10.0);
  AvailabilityModel model = AvailabilityModel::from_availability(0.5, 0.7, 100.0, 10.0);
  AvailabilityProcess process(sim, machine, model, rng::RandomStream(12));
  int failures = 0, repairs = 0;
  auto on_fail = [&](Machine&) { ++failures; };
  auto on_repair = [&](Machine&) { ++repairs; };
  process.start(on_fail, on_repair);
  sim.run_until(50000.0);
  EXPECT_GT(failures, 10);
  EXPECT_TRUE(repairs == failures || repairs == failures - 1);
  EXPECT_EQ(machine.failures(), static_cast<std::uint64_t>(failures));
}

TEST(AvailabilityProcess, MeasuredAvailabilityApproachesTarget) {
  // Long-run property: per-machine measured availability converges.
  des::Simulator sim;
  Machine machine(0, 10.0);
  AvailabilityModel model = AvailabilityModel::from_availability(0.75, 0.7, 600.0, 60.0);
  AvailabilityProcess process(sim, machine, model, rng::RandomStream(34));
  process.start(nullptr, nullptr);
  sim.run_until(5e6);
  EXPECT_NEAR(process.measured_availability(sim.now()), 0.75, 0.05);
}

TEST(AvailabilityProcess, DisabledFailuresNeverFire) {
  des::Simulator sim;
  Machine machine(0, 10.0);
  AvailabilityProcess process(sim, machine, AvailabilityModel::for_level(AvailabilityLevel::kAlways),
                              rng::RandomStream(56));
  auto on_fail = [](Machine&) { FAIL() << "failure fired with failures disabled"; };
  process.start(on_fail, nullptr);
  sim.run_until(1e9);
  EXPECT_TRUE(machine.up());
  EXPECT_EQ(process.failure_count(), 0u);
  EXPECT_EQ(process.measured_availability(sim.now()), 1.0);
}

// --- grid construction ---

TEST(DesktopGrid, HomGridHasExactly100Machines) {
  des::Simulator sim;
  DesktopGrid grid(GridConfig::preset(Heterogeneity::kHom, AvailabilityLevel::kHigh), sim, 1);
  EXPECT_EQ(grid.size(), 100u);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_DOUBLE_EQ(grid.machine(i).power(), 10.0);
  }
  EXPECT_DOUBLE_EQ(grid.total_power(), 1000.0);
}

TEST(DesktopGrid, HetGridPowersInRangeAndSumReached) {
  des::Simulator sim;
  DesktopGrid grid(GridConfig::preset(Heterogeneity::kHet, AvailabilityLevel::kHigh), sim, 2);
  EXPECT_GE(grid.total_power(), 1000.0);
  EXPECT_LT(grid.total_power(), 1000.0 + 17.7);
  // ~100 machines on average (power mean 10).
  EXPECT_GT(grid.size(), 70u);
  EXPECT_LT(grid.size(), 140u);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_GE(grid.machine(i).power(), 2.3);
    EXPECT_LT(grid.machine(i).power(), 17.7);
  }
}

TEST(DesktopGrid, ConstructionIsDeterministicPerSeed) {
  des::Simulator sim_a, sim_b, sim_c;
  const GridConfig config = GridConfig::preset(Heterogeneity::kHet, AvailabilityLevel::kMed);
  DesktopGrid a(config, sim_a, 7), b(config, sim_b, 7), c(config, sim_c, 8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.machine(i).power(), b.machine(i).power());
  }
  bool identical_to_c = a.size() == c.size();
  if (identical_to_c) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a.machine(i).power() != c.machine(i).power()) identical_to_c = false;
    }
  }
  EXPECT_FALSE(identical_to_c);
}

TEST(DesktopGrid, MachineIdsAreSequential) {
  des::Simulator sim;
  DesktopGrid grid(GridConfig::preset(Heterogeneity::kHom, AvailabilityLevel::kLow), sim, 3);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid.machine(i).id(), static_cast<MachineId>(i));
  }
}

TEST(DesktopGrid, AvailableMachinesExcludesBusyAndDown) {
  des::Simulator sim;
  GridConfig config = GridConfig::preset(Heterogeneity::kHom, AvailabilityLevel::kAlways);
  config.total_power = 50.0;  // 5 machines
  DesktopGrid grid(config, sim, 4);
  ASSERT_EQ(grid.size(), 5u);
  grid.machine(0).set_busy(true);
  grid.machine(1).force_down(0.0);
  const auto available = grid.available_machines();
  EXPECT_EQ(available.size(), 3u);
  EXPECT_EQ(grid.up_count(), 4u);
}

TEST(DesktopGrid, GridLevelMeasuredAvailability) {
  des::Simulator sim;
  GridConfig config = GridConfig::preset(Heterogeneity::kHom, AvailabilityLevel::kLow);
  config.total_power = 200.0;  // 20 machines keep the test fast
  DesktopGrid grid(config, sim, 5);
  grid.start(nullptr, nullptr);
  sim.run_until(2e6);
  EXPECT_NEAR(grid.measured_availability(sim.now()), 0.50, 0.08);
  EXPECT_GT(grid.total_failures(), 0u);
}

TEST(GridConfig, PresetNames) {
  EXPECT_EQ(GridConfig::preset(Heterogeneity::kHom, AvailabilityLevel::kHigh).name(),
            "Hom-HighAvail");
  EXPECT_EQ(GridConfig::preset(Heterogeneity::kHet, AvailabilityLevel::kLow).name(),
            "Het-LowAvail");
  EXPECT_EQ(GridConfig::preset(Heterogeneity::kHom, AvailabilityLevel::kMed).name(),
            "Hom-MedAvail");
}

// --- checkpoint server ---

TEST(CheckpointServer, TransferTimesInPaperRange) {
  CheckpointServer server;  // unlimited capacity: pure delay
  rng::RandomStream stream(6);
  for (int i = 0; i < 1000; ++i) {
    const double save = server.schedule_save(1000.0, stream) - 1000.0;
    EXPECT_GE(save, 240.0);
    EXPECT_LT(save, 720.0);
    const double retrieve = server.schedule_retrieve(1000.0, stream) - 1000.0;
    EXPECT_GE(retrieve, 240.0);
    EXPECT_LT(retrieve, 720.0);
  }
  EXPECT_EQ(server.saves(), 1000u);
  EXPECT_EQ(server.retrievals(), 1000u);
  EXPECT_DOUBLE_EQ(server.mean_transfer_time(), 480.0);
  EXPECT_EQ(server.total_queueing_time(), 0.0);
}

TEST(CheckpointServer, SingleSlotSerializesTransfers) {
  // Deterministic durations via a degenerate uniform range.
  CheckpointServer server(rng::UniformDist{100.0, 100.0 + 1e-12}, /*capacity=*/1);
  rng::RandomStream stream(7);
  const double first = server.schedule_save(0.0, stream);
  const double second = server.schedule_save(0.0, stream);
  const double third = server.schedule_save(0.0, stream);
  EXPECT_NEAR(first, 100.0, 1e-6);
  EXPECT_NEAR(second, 200.0, 1e-6);  // queued behind the first
  EXPECT_NEAR(third, 300.0, 1e-6);
  EXPECT_NEAR(server.total_queueing_time(), 100.0 + 200.0, 1e-6);
}

TEST(CheckpointServer, SlotsFreeUpOverTime) {
  CheckpointServer server(rng::UniformDist{100.0, 100.0 + 1e-12}, /*capacity=*/2);
  rng::RandomStream stream(8);
  EXPECT_NEAR(server.schedule_save(0.0, stream), 100.0, 1e-6);
  EXPECT_NEAR(server.schedule_save(0.0, stream), 100.0, 1e-6);   // second slot
  EXPECT_NEAR(server.schedule_save(0.0, stream), 200.0, 1e-6);   // queued
  // Much later: both slots long free, no queueing.
  EXPECT_NEAR(server.schedule_save(1000.0, stream), 1100.0, 1e-6);
}

TEST(CheckpointServer, CancelTransferReleasesUnusedTail) {
  CheckpointServer server(rng::UniformDist{100.0, 100.0}, /*capacity=*/1);
  rng::RandomStream stream(9);
  const CheckpointServer::Transfer first = server.begin_save(0.0, stream);
  EXPECT_DOUBLE_EQ(first.completion, 100.0);
  // Client dies at t=30: the remaining 70 s of reservation are handed back.
  server.cancel_transfer(first, 30.0);
  EXPECT_EQ(server.slots_released(), 1u);
  const CheckpointServer::Transfer second = server.begin_save(30.0, stream);
  EXPECT_DOUBLE_EQ(second.start, 30.0);
  EXPECT_DOUBLE_EQ(second.completion, 130.0);
  EXPECT_DOUBLE_EQ(server.total_queueing_time(), 0.0);
}

TEST(CheckpointServer, CancelAfterCompletionIsNoOp) {
  CheckpointServer server(rng::UniformDist{100.0, 100.0}, /*capacity=*/1);
  rng::RandomStream stream(10);
  const CheckpointServer::Transfer first = server.begin_save(0.0, stream);
  server.cancel_transfer(first, 150.0);  // already finished: nothing to free
  EXPECT_EQ(server.slots_released(), 0u);
  const CheckpointServer::Transfer second = server.begin_save(50.0, stream);
  EXPECT_DOUBLE_EQ(second.start, 100.0);  // still queued behind the full first
  EXPECT_DOUBLE_EQ(second.completion, 200.0);
}

TEST(CheckpointServer, UnlimitedCapacityHasNoSlotToRelease) {
  CheckpointServer server(rng::UniformDist{100.0, 100.0});
  rng::RandomStream stream(11);
  const CheckpointServer::Transfer transfer = server.begin_save(0.0, stream);
  EXPECT_EQ(transfer.slot, CheckpointServer::kNullSlot);
  server.cancel_transfer(transfer, 10.0);
  EXPECT_EQ(server.slots_released(), 0u);
}

TEST(CheckpointServer, ReleaseDisabledReproducesHistoricalLeak) {
  // release_slots = false: a dead client's reservation runs to its end and
  // the next transfer queues behind it — the documented pre-fix behaviour.
  CheckpointServer server(rng::UniformDist{100.0, 100.0}, /*capacity=*/1,
                          /*release_slots=*/false);
  rng::RandomStream stream(12);
  const CheckpointServer::Transfer first = server.begin_save(0.0, stream);
  server.cancel_transfer(first, 30.0);
  EXPECT_EQ(server.slots_released(), 0u);
  const CheckpointServer::Transfer second = server.begin_save(30.0, stream);
  EXPECT_DOUBLE_EQ(second.start, 100.0);
  EXPECT_DOUBLE_EQ(second.completion, 200.0);
  EXPECT_DOUBLE_EQ(server.total_queueing_time(), 70.0);
}

TEST(CheckpointServer, UpDownBookkeeping) {
  CheckpointServer server;
  EXPECT_TRUE(server.up());
  server.set_down(10.0);
  EXPECT_FALSE(server.up());
  EXPECT_EQ(server.outage_count(), 1u);
  EXPECT_DOUBLE_EQ(server.total_downtime(15.0), 5.0);  // open outage counts
  server.set_up(20.0);
  EXPECT_TRUE(server.up());
  EXPECT_DOUBLE_EQ(server.total_downtime(100.0), 10.0);
}

TEST(CheckpointServerFaultModel, ImpliedAvailability) {
  CheckpointServerFaultModel model;
  EXPECT_DOUBLE_EQ(model.availability(), 1.0);  // disabled: perfectly reliable
  model.enabled = true;
  model.mtbf = 9000.0;
  model.mttr = 1000.0;
  EXPECT_DOUBLE_EQ(model.availability(), 0.9);
}

TEST(CheckpointServer, ContentionDelaysSimulation) {
  // End-to-end: a capacity-1 server under heavy checkpoint traffic stretches
  // turnaround relative to the unlimited server.
  auto run = [](std::size_t capacity) {
    sim::SimulationConfig config;
    config.grid = grid::GridConfig::preset(Heterogeneity::kHom, AvailabilityLevel::kLow);
    config.grid.checkpoint_server_capacity = capacity;
    config.workload =
        sim::make_paper_workload(config.grid, 125000.0, workload::Intensity::kLow, 6);
    config.policy = sched::PolicyKind::kRoundRobin;
    config.seed = 17;
    return sim::Simulation(config).run();
  };
  const sim::SimulationResult unlimited = run(0);
  const sim::SimulationResult contended = run(1);
  EXPECT_GT(contended.turnaround.mean(), unlimited.turnaround.mean());
}

TEST(YoungFormula, KnownValues) {
  // tau = sqrt(2 * C * MTBF)
  EXPECT_NEAR(young_checkpoint_interval(480.0, 88200.0), std::sqrt(2.0 * 480.0 * 88200.0), 1e-9);
  EXPECT_NEAR(young_checkpoint_interval(480.0, 1800.0), std::sqrt(2.0 * 480.0 * 1800.0), 1e-9);
}

TEST(YoungFormula, GrowsWithMttf) {
  EXPECT_GT(young_checkpoint_interval(480.0, 88200.0), young_checkpoint_interval(480.0, 5400.0));
  EXPECT_GT(young_checkpoint_interval(480.0, 5400.0), young_checkpoint_interval(480.0, 1800.0));
}

}  // namespace
}  // namespace dg::grid
