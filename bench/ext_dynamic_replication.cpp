// Extension (paper future work, direction 2a): dynamic replication.
//
// Replaces the static WQR-FT threshold with an adaptive controller that
// tracks the EWMA failure fraction of observed replica outcomes and picks
// the smallest r with p_fail^r below a 5% loss target. Compared against
// static R=1 and R=2 across availability levels: dynamic should approach
// R=1's efficiency on stable grids and R=2's resilience on volatile ones.
#include <iostream>

#include "exp/runner.hpp"
#include "util/table.hpp"

#include "guarded_main.hpp"

namespace {

int run() {
  using namespace dg;
  exp::RunOptions options = exp::RunOptions::from_env();
  const std::size_t num_bots = exp::env_num_bots().value_or(60);

  std::cout << "=== Extension: dynamic replication threshold (future work 2a) ===\n\n";

  std::vector<exp::NamedConfig> cells;
  std::vector<std::string> labels;
  for (grid::AvailabilityLevel level : {grid::AvailabilityLevel::kHigh,
                                        grid::AvailabilityLevel::kMed,
                                        grid::AvailabilityLevel::kLow}) {
    const grid::GridConfig grid_config =
        grid::GridConfig::preset(grid::Heterogeneity::kHet, level);
    const workload::WorkloadConfig workload_config = sim::make_paper_workload(
        grid_config, 25000.0, workload::Intensity::kLow, num_bots);
    for (int variant = 0; variant < 3; ++variant) {
      sim::SimulationConfig config;
      config.grid = grid_config;
      config.workload = workload_config;
      config.policy = sched::PolicyKind::kRoundRobin;
      config.warmup_bots = num_bots / 10;
      std::string name;
      if (variant == 0) {
        config.replication_threshold = 1;
        name = "static R=1";
      } else if (variant == 1) {
        config.replication_threshold = 2;
        name = "static R=2";
      } else {
        config.dynamic_replication = true;
        name = "dynamic";
      }
      labels.push_back(grid::to_string(level));
      cells.push_back({grid_config.name() + "/" + name, config});
    }
  }

  exp::ExperimentRunner runner(options);
  const auto results = runner.run(cells);

  util::Table table({"availability", "replication", "mean turnaround [s]", "95% CI +-",
                     "wasted compute", "utilization"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const exp::CellResult& cell = results[i];
    const auto ci = cell.turnaround_ci();
    const std::string variant = cell.label.substr(cell.label.find('/') + 1);
    table.add_row({labels[i], variant, util::format_double(ci.mean, 0),
                   util::format_double(ci.half_width, 0),
                   util::format_double(100.0 * cell.wasted_fraction.mean(), 1) + "%",
                   util::format_double(cell.utilization.mean(), 3)});
  }
  table.render(std::cout);
  return 0;
}

}  // namespace

int main() { return dg::bench::guarded_main("ext_dynamic_replication", run); }
