// Methodology ablation: independent replications vs single-run batch means.
//
// Same scheduling question answered two ways: (a) the paper's method —
// independent replications until the 95% CI is tight; (b) one long run with
// MSER-5 warmup deletion and batch-means CIs. Both should land on the same
// mean; the table reports the estimates, their CIs, and the total number of
// simulated bags each method consumed.
#include <iostream>

#include "exp/runner.hpp"
#include "exp/steady_state.hpp"
#include "util/table.hpp"

#include "guarded_main.hpp"

namespace {

int run() {
  using namespace dg;
  exp::RunOptions options = exp::RunOptions::from_env();
  options.max_replications = std::max<std::size_t>(options.max_replications, 8);
  const std::size_t num_bots = exp::env_num_bots().value_or(80);

  std::cout << "=== Methodology: independent replications vs batch means ===\n\n";

  util::Table table({"policy", "method", "mean turnaround [s]", "95% CI +-", "bags simulated",
                     "notes"});
  for (sched::PolicyKind policy :
       {sched::PolicyKind::kFcfsShare, sched::PolicyKind::kRoundRobin}) {
    sim::SimulationConfig config;
    config.grid = grid::GridConfig::preset(grid::Heterogeneity::kHom,
                                           grid::AvailabilityLevel::kHigh);
    config.workload = sim::make_paper_workload(config.grid, 5000.0,
                                               workload::Intensity::kLow, num_bots);
    config.policy = policy;
    config.warmup_bots = num_bots / 10;

    // (a) independent replications.
    exp::ExperimentRunner runner(options);
    const auto cells = runner.run({{sched::to_string(policy), config}});
    const exp::CellResult& cell = cells.front();
    const auto ci = cell.turnaround_ci();
    table.add_row({sched::to_string(policy), "replications", util::format_double(ci.mean, 0),
                   util::format_double(ci.half_width, 0),
                   std::to_string(cell.replications * num_bots),
                   std::to_string(cell.replications) + " reps x " +
                       std::to_string(num_bots) + " bags"});

    // (b) one long run, batch means.
    exp::SteadyStateOptions ss_options;
    ss_options.num_bots = cell.replications * num_bots;  // equal budget
    ss_options.batch_size = 10;
    const exp::SteadyStateResult ss = exp::run_steady_state(config, ss_options);
    table.add_row({sched::to_string(policy), "batch means",
                   util::format_double(ss.turnaround.mean, 0),
                   util::format_double(ss.turnaround.half_width, 0),
                   std::to_string(ss_options.num_bots),
                   "MSER cut " + std::to_string(ss.truncated_bots) + ", " +
                       std::to_string(ss.batches) + " batches of " +
                       std::to_string(ss.final_batch_size) + ", lag1 " +
                       util::format_double(ss.lag1_autocorrelation, 2)});
  }
  table.render(std::cout);
  return 0;
}

}  // namespace

int main() { return dg::bench::guarded_main("methodology", run); }
