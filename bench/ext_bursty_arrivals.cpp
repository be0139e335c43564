// Extension: arrival-process sensitivity.
//
// The paper models submissions as a Poisson stream; real multi-user
// Desktop Grids see correlated submission bursts (paper deadlines, working
// hours). This bench keeps the mean rate fixed and varies the arrival
// process shape (near-periodic / Poisson / bursty MMPP), asking whether the
// knowledge-free policy ranking is robust to burstiness. Queueing theory
// predicts waiting grows with arrival variability, hitting FCFS-ordered
// policies hardest.
#include <iostream>

#include "exp/runner.hpp"
#include "util/table.hpp"

#include "guarded_main.hpp"

namespace {

int run() {
  using namespace dg;
  exp::RunOptions options = exp::RunOptions::from_env();
  const std::size_t num_bots = exp::env_num_bots().value_or(80);

  const grid::GridConfig grid_config =
      grid::GridConfig::preset(grid::Heterogeneity::kHom, grid::AvailabilityLevel::kHigh);
  const workload::ArrivalProcess processes[] = {workload::ArrivalProcess::kUniformJitter,
                                                workload::ArrivalProcess::kPoisson,
                                                workload::ArrivalProcess::kBursty};
  const sched::PolicyKind policies[] = {sched::PolicyKind::kFcfsShare,
                                        sched::PolicyKind::kRoundRobin,
                                        sched::PolicyKind::kLongIdle};

  std::vector<exp::NamedConfig> cells;
  for (workload::ArrivalProcess process : processes) {
    for (sched::PolicyKind policy : policies) {
      sim::SimulationConfig config;
      config.grid = grid_config;
      config.workload = sim::make_paper_workload(grid_config, 5000.0,
                                                 workload::Intensity::kMed, num_bots);
      config.workload.arrivals = process;
      config.policy = policy;
      config.warmup_bots = num_bots / 10;
      cells.push_back({workload::to_string(process) + "/" + sched::to_string(policy), config});
    }
  }

  std::cout << "=== Extension: arrival-process sensitivity (Hom-HighAvail, 5000 s"
               " tasks, 75% load) ===\n\n";
  exp::ExperimentRunner runner(options);
  const auto results = runner.run(cells);

  util::Table table({"arrivals", "policy", "mean turnaround [s]", "95% CI +-",
                     "mean waiting [s]", "mean slowdown proxy"});
  std::size_t index = 0;
  for (workload::ArrivalProcess process : processes) {
    for (sched::PolicyKind policy : policies) {
      (void)policy;
      const exp::CellResult& cell = results[index++];
      const auto ci = cell.turnaround_ci();
      table.add_row({workload::to_string(process), sched::to_string(cell.config.policy),
                     util::format_double(ci.mean, 0), util::format_double(ci.half_width, 0),
                     util::format_double(cell.waiting.mean(), 0),
                     util::format_double(ci.mean / cell.makespan.mean(), 2)});
    }
  }
  table.render(std::cout);
  return 0;
}

}  // namespace

int main() { return dg::bench::guarded_main("ext_bursty_arrivals", run); }
