// Extension (paper future work, direction 2b): knowledge-based individual
// scheduling under the knowledge-free bag-selection policies.
//
// KB-LTF assumes task execution times are known and serves the longest
// remaining tasks of the chosen bag first (shrinking the straggler tail that
// dominates a bag's makespan on heterogeneous machines), while keeping
// WQR-FT's fault tolerance. Compared against knowledge-free WQR-FT on the
// heterogeneous grids where the paper expects knowledge to matter most.
#include <iostream>

#include "exp/runner.hpp"
#include "util/table.hpp"

#include "guarded_main.hpp"

namespace {

int run() {
  using namespace dg;
  exp::RunOptions options = exp::RunOptions::from_env();
  const std::size_t num_bots = exp::env_num_bots().value_or(60);

  std::cout << "=== Extension: knowledge-based individual scheduler (future work 2b) ===\n"
            << "KB-LTF = longest-task-first with known execution times, on top of\n"
            << "the same bag-selection policies.\n\n";

  std::vector<exp::NamedConfig> cells;
  const grid::GridConfig grid_config =
      grid::GridConfig::preset(grid::Heterogeneity::kHet, grid::AvailabilityLevel::kMed);
  const double granularities[] = {5000.0, 25000.0, 125000.0};
  const sched::PolicyKind policies[] = {sched::PolicyKind::kFcfsShare,
                                        sched::PolicyKind::kRoundRobin};
  const sched::IndividualSchedulerKind kinds[] = {sched::IndividualSchedulerKind::kWqrFt,
                                                  sched::IndividualSchedulerKind::kKnowledgeBased};
  for (double granularity : granularities) {
    for (sched::PolicyKind policy : policies) {
      for (sched::IndividualSchedulerKind kind : kinds) {
        sim::SimulationConfig config;
        config.grid = grid_config;
        config.workload = sim::make_paper_workload(grid_config, granularity,
                                                   workload::Intensity::kLow, num_bots);
        config.policy = policy;
        config.individual = kind;
        config.warmup_bots = num_bots / 10;
        cells.push_back({"g=" + util::format_double(granularity, 0) + "/" +
                             sched::to_string(policy) + "/" + sched::to_string(kind),
                         config});
      }
    }
  }

  // Part 2: knowledge-based *bag selection* (SJF over remaining work) vs the
  // knowledge-free policies, all on WQR-FT.
  const std::size_t part2_start = cells.size();
  const sched::PolicyKind bag_policies[] = {sched::PolicyKind::kFcfsShare,
                                            sched::PolicyKind::kRoundRobin,
                                            sched::PolicyKind::kLongIdle,
                                            sched::PolicyKind::kShortestBagFirst};
  for (double granularity : granularities) {
    for (sched::PolicyKind policy : bag_policies) {
      sim::SimulationConfig config;
      config.grid = grid_config;
      config.workload = sim::make_paper_workload(grid_config, granularity,
                                                 workload::Intensity::kLow, num_bots);
      config.policy = policy;
      config.warmup_bots = num_bots / 10;
      cells.push_back({"bag/g=" + util::format_double(granularity, 0) + "/" +
                           sched::to_string(policy),
                       config});
    }
  }

  exp::ExperimentRunner runner(options);
  const auto results = runner.run(cells);

  util::Table table({"granularity [s]", "bag policy", "individual", "mean turnaround [s]",
                     "95% CI +-"});
  for (std::size_t i = 0; i < part2_start; ++i) {
    const exp::CellResult& cell = results[i];
    const auto ci = cell.turnaround_ci();
    table.add_row({util::format_double(cell.config.workload.types[0].granularity, 0),
                   sched::to_string(cell.config.policy),
                   sched::to_string(cell.config.individual), util::format_double(ci.mean, 0),
                   util::format_double(ci.half_width, 0)});
  }
  table.render(std::cout);

  std::cout << "\n--- knowledge-based bag selection (SJF over remaining work) vs"
               " knowledge-free, WQR-FT individual ---\n";
  util::Table bag_table({"granularity [s]", "bag policy", "mean turnaround [s]", "95% CI +-"});
  for (std::size_t i = part2_start; i < results.size(); ++i) {
    const exp::CellResult& cell = results[i];
    const auto ci = cell.turnaround_ci();
    bag_table.add_row({util::format_double(cell.config.workload.types[0].granularity, 0),
                       sched::to_string(cell.config.policy), util::format_double(ci.mean, 0),
                       util::format_double(ci.half_width, 0)});
  }
  bag_table.render(std::cout);
  return 0;
}

}  // namespace

int main() { return dg::bench::guarded_main("ext_knowledge_based", run); }
