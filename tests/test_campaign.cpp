// Robustness campaign (exp/campaign.hpp): grid expansion, risk-cliff rows,
// seed-sensitivity spread, and the determinism contracts — campaign rows and
// spread statistics must be bit-identical across execution shapes (threads,
// speculation).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/runner.hpp"
#include "rng/splitmix64.hpp"

namespace dg::exp {
namespace {

/// Small axes so a full sweep stays test-sized: 2 policies x 2 machine
/// availabilities x 2 server availabilities x 1 utilization x 1 threshold.
CampaignAxes tiny_axes() {
  CampaignAxes axes = CampaignAxes::smoke();
  axes.num_bots = 6;
  axes.warmup_bots = 1;
  axes.granularity = 25000.0;
  return axes;
}

RunOptions tiny_options() {
  RunOptions options;
  options.min_replications = 2;
  options.max_replications = 2;
  options.threads = 2;
  return options;
}

TEST(Campaign, ExpandsInFixedPolicyMajorOrder) {
  const CampaignAxes axes = tiny_axes();
  const std::vector<CampaignCell> cells = expand_campaign(axes);
  ASSERT_EQ(cells.size(), 2u * 2u * 2u * 1u * 1u);
  // Policy-major, then machine availability, then server availability.
  EXPECT_EQ(cells[0].policy, sched::PolicyKind::kFcfsShare);
  EXPECT_EQ(cells[4].policy, sched::PolicyKind::kRoundRobin);
  EXPECT_DOUBLE_EQ(cells[0].machine_availability, 0.98);
  EXPECT_DOUBLE_EQ(cells[0].server_availability, 1.0);
  EXPECT_DOUBLE_EQ(cells[1].server_availability, 0.70);
  EXPECT_DOUBLE_EQ(cells[2].machine_availability, 0.50);
  // Labels carry every axis.
  EXPECT_EQ(cells[0].label, "FCFS-Share a=0.98 s=1.00 U=0.90 r=2");
  // The reliable-server corner keeps faults disabled; others derive MTBF
  // from the availability target.
  EXPECT_FALSE(cells[0].config.grid.checkpoint_server_faults.enabled);
  ASSERT_TRUE(cells[1].config.grid.checkpoint_server_faults.enabled);
  const auto& faults = cells[1].config.grid.checkpoint_server_faults;
  EXPECT_NEAR(faults.mtbf / (faults.mtbf + faults.mttr), 0.70, 1e-12);
  // Same axes, same cells (labels and configs are deterministic).
  const std::vector<CampaignCell> again = expand_campaign(axes);
  ASSERT_EQ(again.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) EXPECT_EQ(again[i].label, cells[i].label);
}

TEST(Campaign, RejectsBadAxes) {
  {
    CampaignAxes axes = tiny_axes();
    axes.policies.clear();
    EXPECT_THROW((void)expand_campaign(axes), std::invalid_argument);
  }
  {
    CampaignAxes axes = tiny_axes();
    axes.machine_availabilities = {1.0};  // must be < 1
    EXPECT_THROW((void)expand_campaign(axes), std::invalid_argument);
  }
  {
    CampaignAxes axes = tiny_axes();
    axes.server_availabilities = {0.0};
    EXPECT_THROW((void)expand_campaign(axes), std::invalid_argument);
  }
  {
    CampaignAxes axes = tiny_axes();
    axes.replication_thresholds = {0};
    EXPECT_THROW((void)expand_campaign(axes), std::invalid_argument);
  }
}

TEST(Campaign, RiskCliffRowsComputeDegradationAgainstMildestCorner) {
  const std::vector<CampaignCell> cells = expand_campaign(tiny_axes());
  const std::vector<CellResult> results = ExperimentRunner(tiny_options()).run(
      [&cells] {
        std::vector<NamedConfig> named;
        for (const CampaignCell& cell : cells) {
          named.push_back(NamedConfig{cell.label, cell.config});
        }
        return named;
      }());
  const std::vector<RiskCliffRow> rows = risk_cliff_rows(cells, results);
  ASSERT_EQ(rows.size(), cells.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE(rows[i].label);
    EXPECT_EQ(rows[i].label, cells[i].label);
    EXPECT_GT(rows[i].p95, 0.0);
    EXPECT_GE(rows[i].p95, rows[i].p50);
    EXPECT_GE(rows[i].p99, rows[i].p95);
    EXPECT_GT(rows[i].mean_turnaround, 0.0);
    EXPECT_GT(rows[i].replications, 0u);
  }
  // Row 0 is its slice's baseline (a=0.98, s=1.00): degradation exactly 1.
  EXPECT_DOUBLE_EQ(rows[0].degradation_vs_baseline, 1.0);
  // Every other row in that slice is measured against row 0's p95.
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(rows[i].degradation_vs_baseline, rows[i].p95 / rows[0].p95);
  }
  // Second policy's slice has its own baseline.
  EXPECT_DOUBLE_EQ(rows[4].degradation_vs_baseline, 1.0);

  EXPECT_THROW((void)risk_cliff_rows(cells, std::vector<CellResult>(cells.size() - 1)),
               std::invalid_argument);
}

TEST(Campaign, RowsAreBitIdenticalAcrossExecutionShapes) {
  // The same campaign folded under different thread counts and speculation
  // windows must produce bitwise-equal heatmap rows.
  const std::vector<CampaignCell> cells = expand_campaign(tiny_axes());
  std::vector<NamedConfig> named;
  for (const CampaignCell& cell : cells) {
    named.push_back(NamedConfig{cell.label, cell.config});
  }

  const auto rows_for = [&](RunOptions options) {
    return risk_cliff_rows(cells, ExperimentRunner(options).run(named));
  };
  const std::vector<RiskCliffRow> reference = rows_for(tiny_options());

  std::vector<RunOptions> shapes;
  {
    RunOptions o = tiny_options();
    o.threads = 1;
    shapes.push_back(o);
  }
  {
    RunOptions o = tiny_options();
    o.threads = 4;
    shapes.push_back(o);
  }
  {
    RunOptions o = tiny_options();
    o.threads = 1;
    o.speculate = 0;
    shapes.push_back(o);
  }
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    SCOPED_TRACE(s);
    const std::vector<RiskCliffRow> rows = rows_for(shapes[s]);
    ASSERT_EQ(rows.size(), reference.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      SCOPED_TRACE(reference[i].label);
      EXPECT_EQ(rows[i].mean_turnaround, reference[i].mean_turnaround);  // bitwise
      EXPECT_EQ(rows[i].p50, reference[i].p50);
      EXPECT_EQ(rows[i].p95, reference[i].p95);
      EXPECT_EQ(rows[i].p99, reference[i].p99);
      EXPECT_EQ(rows[i].wasted_fraction, reference[i].wasted_fraction);
      EXPECT_EQ(rows[i].degradation_vs_baseline, reference[i].degradation_vs_baseline);
      EXPECT_EQ(rows[i].replications, reference[i].replications);
    }
  }
}

TEST(Campaign, SeedSpreadIsDeterministicAcrossThreadCounts) {
  const std::vector<CampaignCell> cells = expand_campaign(tiny_axes());
  const sim::SimulationConfig& config = cells[1].config;  // a stressed corner

  RunOptions options = tiny_options();
  const SeedSpreadReport reference = seed_sensitivity(config, options, 5);
  ASSERT_EQ(reference.seeds, 5u);
  ASSERT_EQ(reference.p95.size(), 5u);
  EXPECT_GT(reference.p95_min, 0.0);
  EXPECT_LE(reference.p95_min, reference.p95_median);
  EXPECT_LE(reference.p95_median, reference.p95_max);
  EXPECT_GE(reference.p95_max_over_min, 1.0);
  EXPECT_GE(reference.p95_stddev, 0.0);

  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    RunOptions other = options;
    other.threads = threads;
    const SeedSpreadReport report = seed_sensitivity(config, other, 5);
    EXPECT_EQ(report.p95, reference.p95);  // bitwise, per-seed
    EXPECT_EQ(report.mean_turnaround, reference.mean_turnaround);
    EXPECT_EQ(report.p95_median, reference.p95_median);
    EXPECT_EQ(report.p95_stddev, reference.p95_stddev);
    EXPECT_EQ(report.saturated_seeds, reference.saturated_seeds);
  }
  EXPECT_THROW((void)seed_sensitivity(config, options, 1), std::invalid_argument);
  // A seed that throws surfaces its exception, not a spread: Simulation::run
  // rejects the adversary on non-Poisson arrivals.
  sim::SimulationConfig failing = config;
  failing.workload.arrivals = workload::ArrivalProcess::kUniformJitter;
  failing.adversary.enabled = true;
  options.threads = 3;
  EXPECT_THROW((void)seed_sensitivity(failing, options, 4), std::invalid_argument);
}

TEST(Campaign, SeedSpreadMatchesADirectLoopOverSeeds) {
  // The pass runs on runner lanes; its per-seed values must be exactly those
  // of running each seed mix_seed(base_seed, i) by hand.
  const std::vector<CampaignCell> cells = expand_campaign(tiny_axes());
  RunOptions options = tiny_options();
  options.threads = 3;
  constexpr std::size_t kSeeds = 5;
  const auto expect_direct_loop = [&](const sim::SimulationConfig& config) {
    const SeedSpreadReport report = seed_sensitivity(config, options, kSeeds);
    EXPECT_EQ(report.p95.size(), kSeeds);
    EXPECT_EQ(report.mean_turnaround.size(), kSeeds);
    std::size_t saturated = 0;
    const std::size_t checked =
        std::min({kSeeds, report.p95.size(), report.mean_turnaround.size()});
    for (std::size_t i = 0; i < checked; ++i) {
      SCOPED_TRACE(i);
      sim::SimulationConfig seeded = config;
      seeded.seed = rng::mix_seed(options.base_seed, i);
      const sim::SimulationResult result = sim::Simulation(seeded).run();
      EXPECT_EQ(report.p95[i], result.turnaround_tail.quantile(0.95));  // bitwise
      EXPECT_EQ(report.mean_turnaround[i], result.turnaround.mean());
      if (result.saturated) ++saturated;
    }
    EXPECT_EQ(report.saturated_seeds, saturated);
    return saturated;
  };
  EXPECT_EQ(expect_direct_loop(cells[1].config), 0u);
  // A horizon that cuts 4 of the 5 seeds short: the count is per seed.
  sim::SimulationConfig cut_short = cells[1].config;
  cut_short.max_sim_time = 30000.0;
  const std::size_t saturated = expect_direct_loop(cut_short);
  EXPECT_GT(saturated, 0u);
  EXPECT_LT(saturated, kSeeds);
}

TEST(CampaignOptions, FromEnvParsesAndValidates) {
  ASSERT_EQ(setenv("DGSCHED_CAMPAIGN_SEEDS", "7", 1), 0);
  ASSERT_EQ(setenv("DGSCHED_CAMPAIGN_GRID", "smoke", 1), 0);
  ASSERT_EQ(setenv("DGSCHED_ADVERSARY", "0", 1), 0);
  CampaignOptions options = CampaignOptions::from_env();
  EXPECT_EQ(options.seeds, 7u);
  EXPECT_TRUE(options.smoke);
  EXPECT_FALSE(options.adversary);

  ASSERT_EQ(setenv("DGSCHED_CAMPAIGN_GRID", "full", 1), 0);
  ASSERT_EQ(setenv("DGSCHED_ADVERSARY", "1", 1), 0);
  options = CampaignOptions::from_env();
  EXPECT_FALSE(options.smoke);
  EXPECT_TRUE(options.adversary);

  // Malformed values throw, naming the variable and the value.
  ASSERT_EQ(setenv("DGSCHED_CAMPAIGN_SEEDS", "1", 1), 0);
  try {
    (void)CampaignOptions::from_env();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("DGSCHED_CAMPAIGN_SEEDS"), std::string::npos);
    EXPECT_NE(what.find("1"), std::string::npos);
  }
  ASSERT_EQ(setenv("DGSCHED_CAMPAIGN_SEEDS", "8", 1), 0);
  ASSERT_EQ(setenv("DGSCHED_CAMPAIGN_GRID", "banana", 1), 0);
  EXPECT_THROW((void)CampaignOptions::from_env(), std::invalid_argument);
  ASSERT_EQ(setenv("DGSCHED_CAMPAIGN_GRID", "smoke", 1), 0);
  // The adversary switch is exactly 0 or 1; anything else is a typo, not "on".
  for (const char* bad : {"nope", "7", "2", " 1", "01"}) {
    SCOPED_TRACE(bad);
    ASSERT_EQ(setenv("DGSCHED_ADVERSARY", bad, 1), 0);
    EXPECT_THROW((void)CampaignOptions::from_env(), std::invalid_argument);
  }
  // Seed counts are plain digits: no sign, no whitespace.
  ASSERT_EQ(setenv("DGSCHED_ADVERSARY", "1", 1), 0);
  for (const char* bad : {"+8", " 8", "8 ", "-8"}) {
    SCOPED_TRACE(bad);
    ASSERT_EQ(setenv("DGSCHED_CAMPAIGN_SEEDS", bad, 1), 0);
    EXPECT_THROW((void)CampaignOptions::from_env(), std::invalid_argument);
  }

  ASSERT_EQ(unsetenv("DGSCHED_CAMPAIGN_SEEDS"), 0);
  ASSERT_EQ(unsetenv("DGSCHED_CAMPAIGN_GRID"), 0);
  ASSERT_EQ(unsetenv("DGSCHED_ADVERSARY"), 0);
  const CampaignOptions defaults = CampaignOptions::from_env();
  EXPECT_EQ(defaults.seeds, CampaignOptions{}.seeds);
  EXPECT_FALSE(defaults.smoke);
  EXPECT_TRUE(defaults.adversary);
}

}  // namespace
}  // namespace dg::exp
