// Utilization sweep: turnaround vs offered load.
//
// The paper samples three intensities (50/75/90%); this sweep traces the
// whole load-response curve at a fixed granularity, locating each policy's
// saturation knee and reporting the fairness of the resulting slowdowns
// (Jain's index — FCFS-ordered service trades fairness for mean turnaround).
#include <iostream>

#include "exp/runner.hpp"
#include "rng/splitmix64.hpp"
#include "sim/simulation.hpp"
#include "stats/online_stats.hpp"
#include "util/table.hpp"

#include "guarded_main.hpp"

namespace {

int run() {
  using namespace dg;
  const exp::RunOptions options = exp::RunOptions::from_env();
  const std::size_t num_bots = exp::env_num_bots().value_or(80);
  const std::size_t reps = options.min_replications;

  const grid::GridConfig grid_config =
      grid::GridConfig::preset(grid::Heterogeneity::kHom, grid::AvailabilityLevel::kHigh);
  const double granularity = 5000.0;
  const double utilizations[] = {0.3, 0.5, 0.7, 0.8, 0.9, 0.95};
  const sched::PolicyKind policies[] = {sched::PolicyKind::kFcfsShare,
                                        sched::PolicyKind::kRoundRobin,
                                        sched::PolicyKind::kLongIdle};

  std::cout << "=== Utilization sweep (Hom-HighAvail, 5000 s tasks) ===\n"
            << "Mean turnaround and Jain fairness of slowdowns vs offered load.\n\n";

  util::Table table({"target U", "policy", "mean turnaround [s]", "mean slowdown",
                     "Jain fairness", "queue growth", "saturated"});
  const double effective_power = workload::effective_grid_power(grid_config);
  for (double utilization : utilizations) {
    for (sched::PolicyKind policy : policies) {
      stats::OnlineStats turnaround, slowdown, fairness, growth;
      bool saturated = false;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        sim::SimulationConfig config;
        config.grid = grid_config;
        config.workload.types = {workload::BotType{granularity, 0.5}};
        config.workload.bag_size = 2.5e6;
        config.workload.num_bots = num_bots;
        config.workload.arrival_rate = workload::arrival_rate_for_utilization(
            utilization, config.workload.bag_size, effective_power);
        config.policy = policy;
        config.warmup_bots = num_bots / 10;
        config.seed = rng::mix_seed(options.base_seed, rep);
        const sim::SimulationResult result = sim::Simulation(config).run();
        turnaround.add(result.turnaround.mean());
        slowdown.add(result.slowdown.mean());
        fairness.add(result.slowdown_fairness());
        growth.add(result.queue_growth_ratio);
        saturated |= result.saturated;
      }
      table.add_row({util::format_double(utilization, 2), sched::to_string(policy),
                     util::format_double(turnaround.mean(), 0),
                     util::format_double(slowdown.mean(), 1),
                     util::format_double(fairness.mean(), 3),
                     util::format_double(growth.mean(), 2), saturated ? "yes" : "no"});
    }
  }
  table.render(std::cout);
  return 0;
}

}  // namespace

int main() { return dg::bench::guarded_main("sweep_utilization", run); }
