// Ablation: individual-bag scheduler (WorkQueue vs WQR vs WQR-FT).
//
// Isolates the contribution of replication (WQR over WorkQueue) and of
// checkpointing + priority resubmission (WQR-FT over WQR) under churn, across
// task granularities. The checkpoint machinery only pays off once tasks are
// long relative to the machines' MTTF: at small granularities the Uniform
// [240,720] s transfer costs exceed the progress they protect.
#include <iostream>

#include "exp/runner.hpp"
#include "util/table.hpp"

#include "guarded_main.hpp"

namespace {

int run() {
  using namespace dg;
  exp::RunOptions options = exp::RunOptions::from_env();
  std::size_t num_bots = exp::env_num_bots().value_or(40);

  const grid::GridConfig grid_config =
      grid::GridConfig::preset(grid::Heterogeneity::kHom, grid::AvailabilityLevel::kLow);
  const double granularities[] = {1000.0, 5000.0, 25000.0, 125000.0};
  const sched::IndividualSchedulerKind kinds[] = {sched::IndividualSchedulerKind::kWorkQueue,
                                                  sched::IndividualSchedulerKind::kWqr,
                                                  sched::IndividualSchedulerKind::kWqrFt};

  std::vector<exp::NamedConfig> cells;
  for (double granularity : granularities) {
    for (sched::IndividualSchedulerKind kind : kinds) {
      sim::SimulationConfig config;
      config.grid = grid_config;
      config.workload = sim::make_paper_workload(grid_config, granularity,
                                                 workload::Intensity::kLow, num_bots);
      config.policy = sched::PolicyKind::kRoundRobin;
      config.individual = kind;
      config.warmup_bots = num_bots / 10;
      cells.push_back(
          {"g=" + util::format_double(granularity, 0) + "/" + sched::to_string(kind), config});
    }
  }

  std::cout << "=== Ablation: individual-bag scheduler under churn (Hom-LowAvail, RR) ===\n"
            << "WQR adds replication to WorkQueue; WQR-FT adds checkpointing and\n"
            << "priority resubmission to WQR (the paper's choice).\n\n";
  exp::ExperimentRunner runner(options);
  const auto results = runner.run(cells);

  util::Table table({"granularity [s]", "scheduler", "mean turnaround [s]", "95% CI +-",
                     "lost work [s]", "saturated"});
  std::size_t index = 0;
  for (double granularity : granularities) {
    for (sched::IndividualSchedulerKind kind : kinds) {
      (void)kind;
      const exp::CellResult& cell = results[index++];
      const auto ci = cell.turnaround_ci();
      table.add_row({util::format_double(granularity, 0),
                     sched::to_string(cell.config.individual),
                     util::format_double(ci.mean, 0), util::format_double(ci.half_width, 0),
                     util::format_double(cell.lost_work.mean(), 0),
                     cell.saturated() ? "yes" : "no"});
    }
  }
  table.render(std::cout);
  return 0;
}

}  // namespace

int main() { return dg::bench::guarded_main("ablation_checkpoint", run); }
