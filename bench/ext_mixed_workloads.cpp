// Extension (paper future work, direction 1): workloads mixing BoT types.
//
// The paper evaluates homogeneous-type workloads and leaves "BoTs of
// different types simultaneously submitted" to future work. Here every
// arriving bag draws its granularity uniformly from all four paper types,
// and the five policies are compared on high- and low-availability grids.
// The interesting question: does the granularity-dependent ranking (FCFS at
// small, RR at large) survive when granularities are mixed? We also report
// the mean turnaround split by the bag's own type.
#include <iostream>
#include <map>

#include "exp/runner.hpp"
#include "sim/simulation.hpp"
#include "util/table.hpp"

#include "guarded_main.hpp"

namespace {

int run() {
  using namespace dg;
  exp::RunOptions options = exp::RunOptions::from_env();
  const std::size_t num_bots = exp::env_num_bots().value_or(120);

  std::cout << "=== Extension: mixed-granularity workloads (future work 1) ===\n"
            << "Each bag draws its granularity uniformly from {1000, 5000, 25000,"
               " 125000} s.\n\n";

  for (grid::AvailabilityLevel level :
       {grid::AvailabilityLevel::kHigh, grid::AvailabilityLevel::kLow}) {
    const grid::GridConfig grid_config =
        grid::GridConfig::preset(grid::Heterogeneity::kHom, level);

    workload::WorkloadConfig workload_config;
    workload_config.types.clear();
    for (double g : workload::kPaperGranularities) {
      workload_config.types.push_back(workload::BotType{g, 0.5});
    }
    workload_config.bag_size = 2.5e6;
    workload_config.num_bots = num_bots;
    workload_config.arrival_rate = workload::arrival_rate_for_utilization(
        0.5, workload_config.bag_size, workload::effective_grid_power(grid_config));

    util::Table table({"policy", "mean turnaround [s]", "g=1000", "g=5000", "g=25000",
                       "g=125000", "saturated"});
    for (sched::PolicyKind policy : sched::paper_policies()) {
      // Aggregate per-type means across replications by hand (the runner's
      // CellResult only carries the overall mean).
      stats::OnlineStats overall;
      std::map<double, stats::OnlineStats> by_type;
      bool saturated = false;
      for (std::size_t rep = 0; rep < options.min_replications; ++rep) {
        sim::SimulationConfig config;
        config.grid = grid_config;
        config.workload = workload_config;
        config.policy = policy;
        config.seed = rng::mix_seed(options.base_seed, rep);
        config.warmup_bots = num_bots / 10;
        const sim::SimulationResult result = sim::Simulation(config).run();
        saturated |= result.saturated;
        overall.add(result.turnaround.mean());
        std::map<double, stats::OnlineStats> rep_by_type;
        for (std::size_t i = config.warmup_bots; i < result.bots.size(); ++i) {
          rep_by_type[result.bots[i].granularity].add(result.bots[i].turnaround);
        }
        for (const auto& [g, s] : rep_by_type) by_type[g].add(s.mean());
      }
      std::vector<std::string> row{sched::to_string(policy),
                                   util::format_double(overall.mean(), 0)};
      for (double g : workload::kPaperGranularities) {
        row.push_back(util::format_double(by_type[g].mean(), 0));
      }
      row.push_back(saturated ? "yes" : "no");
      table.add_row(std::move(row));
    }
    std::cout << "--- " << grid_config.name() << ", 50% target utilization ---\n";
    table.render(std::cout);
    std::cout << "\n";
  }
  return 0;
}

}  // namespace

int main() { return dg::bench::guarded_main("ext_mixed_workloads", run); }
