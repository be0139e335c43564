// Extension: correlated outages vs independent churn.
//
// Replication's value rests on replicas failing independently; a LAN-segment
// power cut violates that. This bench fixes the long-run availability at
// ~92.5% and delivers the unavailability either as independent per-machine
// churn (Weibull/normal, the paper's model) or as correlated outages hitting
// 25% of the grid at once, then compares the five policies and the
// replication threshold's usefulness under each regime.
#include <iostream>

#include "exp/runner.hpp"
#include "util/table.hpp"

#include "guarded_main.hpp"

namespace {

dg::grid::GridConfig independent_grid() {
  using namespace dg;
  grid::GridConfig config =
      grid::GridConfig::preset(grid::Heterogeneity::kHom, grid::AvailabilityLevel::kHigh);
  config.availability = grid::AvailabilityModel::from_availability(0.925);
  return config;
}

dg::grid::GridConfig correlated_grid() {
  using namespace dg;
  grid::GridConfig config =
      grid::GridConfig::preset(grid::Heterogeneity::kHom, grid::AvailabilityLevel::kAlways);
  config.outages.enabled = true;
  config.outages.fraction = 0.25;
  config.outages.mean_interarrival = 5000.0;
  config.outages.duration = rng::UniformDist{1000.0, 2000.0};  // loss = 7.5%
  return config;
}

int run() {
  using namespace dg;
  exp::RunOptions options = exp::RunOptions::from_env();
  const std::size_t num_bots = exp::env_num_bots().value_or(50);

  std::cout << "=== Extension: correlated outages vs independent churn"
               " (~92.5% availability each) ===\n\n";

  std::vector<exp::NamedConfig> cells;
  struct RowMeta {
    const char* regime;
    sched::PolicyKind policy;
    int threshold;
  };
  std::vector<RowMeta> meta;
  for (int regime = 0; regime < 2; ++regime) {
    const grid::GridConfig grid_config = regime == 0 ? independent_grid() : correlated_grid();
    const char* regime_name = regime == 0 ? "independent" : "correlated";
    for (sched::PolicyKind policy : sched::paper_policies()) {
      sim::SimulationConfig config;
      config.grid = grid_config;
      // Arrival rate from the same effective power in both regimes: use the
      // independent grid's model so offered load matches.
      config.workload = sim::make_paper_workload(independent_grid(), 25000.0,
                                                 workload::Intensity::kLow, num_bots);
      config.policy = policy;
      config.warmup_bots = num_bots / 10;
      cells.push_back({std::string(regime_name) + "/" + sched::to_string(policy), config});
      meta.push_back({regime_name, policy, 2});
    }
    // Replication ablation under each regime (RR only).
    for (int threshold : {1, 3}) {
      sim::SimulationConfig config;
      config.grid = grid_config;
      config.workload = sim::make_paper_workload(independent_grid(), 25000.0,
                                                 workload::Intensity::kLow, num_bots);
      config.policy = sched::PolicyKind::kRoundRobin;
      config.replication_threshold = threshold;
      config.warmup_bots = num_bots / 10;
      cells.push_back({std::string(regime_name) + "/RR/R=" + std::to_string(threshold), config});
      meta.push_back({regime_name, sched::PolicyKind::kRoundRobin, threshold});
    }
  }

  exp::ExperimentRunner runner(options);
  const auto results = runner.run(cells);

  util::Table table({"failure regime", "policy", "R", "mean turnaround [s]", "95% CI +-",
                     "wasted compute"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto ci = results[i].turnaround_ci();
    table.add_row({meta[i].regime, sched::to_string(meta[i].policy),
                   std::to_string(meta[i].threshold), util::format_double(ci.mean, 0),
                   util::format_double(ci.half_width, 0),
                   util::format_double(100.0 * results[i].wasted_fraction.mean(), 1) + "%"});
  }
  table.render(std::cout);
  std::cout << "\nExpected shape: at equal availability, correlated outages inflate\n"
               "turnaround and blunt the benefit of raising the replication threshold\n"
               "(replicas die together).\n";
  return 0;
}

}  // namespace

int main() { return dg::bench::guarded_main("ext_correlated_outages", run); }
