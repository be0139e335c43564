// Correlated outages: the OutageProcess and its composition with per-machine
// availability and the execution engine.
#include <gtest/gtest.h>

#include "grid/outage.hpp"
#include "sim/invariant_checker.hpp"
#include "sim/simulation.hpp"

namespace dg {
namespace {

grid::GridConfig outage_grid(double fraction, double mean_interarrival,
                             grid::AvailabilityLevel level = grid::AvailabilityLevel::kAlways) {
  grid::GridConfig config = grid::GridConfig::preset(grid::Heterogeneity::kHom, level);
  config.outages.enabled = true;
  config.outages.fraction = fraction;
  config.outages.mean_interarrival = mean_interarrival;
  config.outages.duration = rng::UniformDist{1000.0, 2000.0};
  return config;
}

TEST(OutageModel, AvailabilityLoss) {
  grid::OutageModel model;
  EXPECT_EQ(model.availability_loss(), 0.0);  // disabled
  model.enabled = true;
  model.fraction = 0.25;
  model.mean_interarrival = 10000.0;
  model.duration = rng::ConstantDist{2000.0};
  EXPECT_NEAR(model.availability_loss(), 0.25 * 2000.0 / 10000.0, 1e-12);
}

TEST(OutageProcess, HitsTheConfiguredFraction) {
  des::Simulator sim;
  grid::DesktopGrid grid(outage_grid(0.3, 20000.0), sim, 1);
  int edges_down = 0, edges_up = 0;
  auto on_down = [&](grid::Machine&) { ++edges_down; };
  auto on_up = [&](grid::Machine&) { ++edges_up; };
  grid.start(on_down, on_up);
  sim.run_until(1e6);  // ~50 outages expected
  const auto& outages = grid.outage_process();
  EXPECT_GT(outages.outages(), 20u);
  // 30 machines of 100 per outage.
  EXPECT_EQ(outages.machines_hit(), outages.outages() * 30u);
  // Overlapping outages may hit a machine that is already down (no edge),
  // so edge counts can fall slightly short of the hit count.
  EXPECT_LE(edges_down, static_cast<int>(outages.machines_hit()));
  EXPECT_GT(edges_down, static_cast<int>(outages.machines_hit() * 9 / 10));
  EXPECT_EQ(edges_up, edges_down);
}

TEST(OutageProcess, DisabledByDefault) {
  des::Simulator sim;
  grid::GridConfig config =
      grid::GridConfig::preset(grid::Heterogeneity::kHom, grid::AvailabilityLevel::kAlways);
  grid::DesktopGrid grid(config, sim, 2);
  auto on_down = [](grid::Machine&) { FAIL() << "unexpected failure"; };
  grid.start(on_down, nullptr);
  sim.run_until(1e7);
  EXPECT_EQ(grid.outage_process().outages(), 0u);
}

TEST(OutageProcess, MeasuredAvailabilityReflectsOutages) {
  des::Simulator sim;
  // fraction 0.5 every ~10000 s for ~1500 s => loss ~ 7.5%.
  grid::GridConfig config = outage_grid(0.5, 10000.0);
  grid::DesktopGrid grid(config, sim, 3);
  grid.start(nullptr, nullptr);
  sim.run_until(5e6);
  EXPECT_NEAR(grid.measured_availability(sim.now()), 1.0 - config.outages.availability_loss(),
              0.02);
}

TEST(OutageProcess, ComposesWithPerMachineChurn) {
  // Both failure sources active: availability reflects the combined loss and
  // nothing trips the down-cause accounting.
  des::Simulator sim;
  grid::GridConfig config = outage_grid(0.3, 20000.0, grid::AvailabilityLevel::kMed);
  grid::DesktopGrid grid(config, sim, 4);
  grid.start(nullptr, nullptr);
  sim.run_until(3e6);
  const double expected = 0.75 - config.outages.availability_loss();
  EXPECT_NEAR(grid.measured_availability(sim.now()), expected, 0.05);
  EXPECT_GT(grid.total_failures(), grid.outage_process().machines_hit());
}

TEST(OutageSimulation, EndToEndInvariantsHold) {
  sim::SimulationConfig config;
  config.grid = outage_grid(0.4, 30000.0, grid::AvailabilityLevel::kMed);
  config.workload = sim::make_paper_workload(config.grid, 25000.0,
                                             workload::Intensity::kLow, 10);
  config.policy = sched::PolicyKind::kRoundRobin;
  config.seed = 5;
  sim::InvariantChecker checker;
  const sim::SimulationResult result = sim::Simulation(config).run(&checker);
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_EQ(result.bots_completed, result.bots.size());
  EXPECT_GT(result.replica_failures, 0u);
}

TEST(OutageSimulation, CorrelatedFailuresHurtMoreThanIndependentOnes) {
  // Same long-run availability (~92%), delivered either as independent
  // per-machine churn or as correlated quarter-grid outages. Correlated
  // failures kill sibling replicas together, so turnaround suffers more.
  auto run = [](bool correlated) {
    sim::SimulationConfig config;
    if (correlated) {
      config.grid = outage_grid(0.25, 5000.0);  // loss 0.25*1500/5000 = 7.5%
    } else {
      config.grid = grid::GridConfig::preset(grid::Heterogeneity::kHom,
                                             grid::AvailabilityLevel::kHigh);
      config.grid.availability = grid::AvailabilityModel::from_availability(0.925);
    }
    double sum = 0.0;
    for (int s = 0; s < 3; ++s) {
      config.workload = sim::make_paper_workload(config.grid, 25000.0,
                                                 workload::Intensity::kLow, 12);
      config.policy = sched::PolicyKind::kRoundRobin;
      config.seed = 6000 + static_cast<std::uint64_t>(s);
      sum += sim::Simulation(config).run().turnaround.mean();
    }
    return sum / 3.0;
  };
  const double independent = run(false);
  const double correlated = run(true);
  EXPECT_GT(correlated, independent * 0.9);  // at least comparable, usually worse
}

}  // namespace
}  // namespace dg
