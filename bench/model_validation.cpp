// Model validation: analytical queueing predictions vs simulation.
//
// FCFS-Excl serves whole bags serially -> M/G/1 FCFS (Pollaczek-Khinchine);
// RR approximates processor sharing -> M/G/1-PS. The table reports predicted
// vs simulated mean turnaround across granularities and intensities on the
// Hom-HighAvail grid. Expected shape: tight agreement in the bulk regime
// (small granularity, where a bag's service is near-deterministic) and a
// documented optimistic bias at large granularities (the analytic service
// model ignores replication interactions and within-bag stragglers beyond
// the max-task correction).
#include <iostream>

#include "analysis/queueing.hpp"
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
  const double granularities[] = {1000.0, 5000.0, 25000.0};
  const workload::Intensity intensities[] = {workload::Intensity::kLow,
                                             workload::Intensity::kMed};

  struct Row {
    double granularity;
    workload::Intensity intensity;
    sched::PolicyKind policy;
    double predicted;
  };
  std::vector<Row> rows;
  std::vector<exp::NamedConfig> cells;
  for (double granularity : granularities) {
    for (workload::Intensity intensity : intensities) {
      const workload::WorkloadConfig workload_config =
          sim::make_paper_workload(grid_config, granularity, intensity, num_bots);
      const analysis::ServiceModel service =
          analysis::bag_service_model(grid_config, workload_config);
      for (sched::PolicyKind policy :
           {sched::PolicyKind::kFcfsExcl, sched::PolicyKind::kRoundRobin}) {
        const analysis::QueueingPrediction prediction =
            policy == sched::PolicyKind::kFcfsExcl
                ? analysis::mg1_fcfs(workload_config.arrival_rate, service)
                : analysis::mg1_ps(workload_config.arrival_rate, service);
        sim::SimulationConfig config;
        config.grid = grid_config;
        config.workload = workload_config;
        config.policy = policy;
        config.warmup_bots = num_bots / 10;
        rows.push_back({granularity, intensity, policy, prediction.mean_response});
        cells.push_back({"g=" + util::format_double(granularity, 0) + "/" +
                             workload::to_string(intensity) + "/" + sched::to_string(policy),
                         config});
      }
    }
  }

  std::cout << "=== Model validation: M/G/1 predictions vs simulation (Hom-HighAvail) ===\n"
            << "FCFS-Excl vs Pollaczek-Khinchine; RR vs processor sharing.\n\n";
  exp::ExperimentRunner runner(options);
  const auto results = runner.run(cells);

  util::Table table({"granularity [s]", "intensity", "policy", "queue model",
                     "predicted T [s]", "simulated T [s]", "ratio"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double simulated = results[i].turnaround.stats().mean();
    table.add_row({util::format_double(rows[i].granularity, 0),
                   workload::to_string(rows[i].intensity), sched::to_string(rows[i].policy),
                   rows[i].policy == sched::PolicyKind::kFcfsExcl ? "M/G/1 FCFS" : "M/G/1 PS",
                   util::format_double(rows[i].predicted, 0),
                   util::format_double(simulated, 0),
                   util::format_double(rows[i].predicted / simulated, 2)});
  }
  table.render(std::cout);
  return 0;
}

}  // namespace

int main() { return dg::bench::guarded_main("model_validation", run); }
