// Ablation: static replication threshold R in {1, 2, 3, 4}.
//
// The paper fixes WQR-FT's threshold at 2, citing [3]: higher values bring
// "negligible performance benefits at the price of much higher overhead".
// This bench sweeps R on the heterogeneous low-availability grid (where
// replication matters most) and reports turnaround alongside the wasted
// compute fraction, regenerating the basis for that choice.
#include <iostream>

#include "exp/runner.hpp"
#include "util/table.hpp"

#include "guarded_main.hpp"

namespace {

int run() {
  using namespace dg;
  exp::RunOptions options = exp::RunOptions::from_env();
  std::size_t num_bots = exp::env_num_bots().value_or(60);

  const grid::GridConfig grid_config =
      grid::GridConfig::preset(grid::Heterogeneity::kHet, grid::AvailabilityLevel::kLow);
  const double granularities[] = {5000.0, 25000.0};
  const int thresholds[] = {1, 2, 3, 4};

  std::vector<exp::NamedConfig> cells;
  for (double granularity : granularities) {
    for (int threshold : thresholds) {
      sim::SimulationConfig config;
      config.grid = grid_config;
      config.workload = sim::make_paper_workload(grid_config, granularity,
                                                 workload::Intensity::kLow, num_bots);
      config.policy = sched::PolicyKind::kRoundRobin;
      config.replication_threshold = threshold;
      config.warmup_bots = num_bots / 10;
      cells.push_back({"g=" + util::format_double(granularity, 0) +
                           "/R=" + std::to_string(threshold),
                       config});
    }
  }

  std::cout << "=== Ablation: WQR-FT replication threshold (Het-LowAvail, RR, low"
               " intensity) ===\n"
            << "The paper's choice R=2 should dominate R=1 and be within noise of"
               " R=3/4\nwhile wasting fewer cycles.\n\n";
  exp::ExperimentRunner runner(options);
  const auto results = runner.run(cells);

  util::Table table({"granularity [s]", "R", "mean turnaround [s]", "95% CI +-",
                     "wasted compute", "utilization"});
  std::size_t index = 0;
  for (double granularity : granularities) {
    for (int threshold : thresholds) {
      const exp::CellResult& cell = results[index++];
      const auto ci = cell.turnaround_ci();
      table.add_row({util::format_double(granularity, 0), std::to_string(threshold),
                     util::format_double(ci.mean, 0), util::format_double(ci.half_width, 0),
                     util::format_double(100.0 * cell.wasted_fraction.mean(), 1) + "%",
                     util::format_double(cell.utilization.mean(), 3)});
    }
  }
  table.render(std::cout);
  return 0;
}

}  // namespace

int main() { return dg::bench::guarded_main("ablation_replication", run); }
