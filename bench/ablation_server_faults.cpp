// Ablation: checkpoint-server availability.
//
// The paper's checkpoint server never fails; WQR-FT's fault tolerance is
// therefore only ever exercised against *machine* volatility. This ablation
// injects server outages (exponential MTBF/MTTR, transfers aborted on a
// crash) and sweeps the implied long-run server availability for every
// multi-BoT policy, measuring how gracefully turnaround degrades when the
// checkpoint/restart infrastructure itself is flaky. The repair time is held
// at one hour and the failure rate derived from the target availability:
// MTBF = a / (1 - a) * MTTR.
#include <iostream>

#include "exp/runner.hpp"
#include "util/table.hpp"

#include "guarded_main.hpp"

namespace {

int run() {
  using namespace dg;
  exp::RunOptions options = exp::RunOptions::from_env();
  const std::size_t num_bots = exp::env_num_bots().value_or(40);

  const double availabilities[] = {1.0, 0.95, 0.85, 0.70};
  const sched::PolicyKind policies[] = {
      sched::PolicyKind::kFcfsExcl,         sched::PolicyKind::kFcfsShare,
      sched::PolicyKind::kRoundRobin,       sched::PolicyKind::kRoundRobinNrf,
      sched::PolicyKind::kLongIdle,         sched::PolicyKind::kRandom,
      sched::PolicyKind::kShortestBagFirst, sched::PolicyKind::kPendingFirst};
  constexpr double kMttr = 3600.0;

  std::cout << "=== Ablation: checkpoint-server availability (Hom-LowAvail, WQR-FT) ===\n"
            << "a = 1.0 is the paper's perfectly-reliable server; lower availability\n"
            << "aborts in-flight transfers and forces retry/backoff or degradation.\n\n";

  std::vector<exp::NamedConfig> cells;
  for (double availability : availabilities) {
    for (sched::PolicyKind policy : policies) {
      sim::SimulationConfig config;
      config.grid = grid::GridConfig::preset(grid::Heterogeneity::kHom,
                                             grid::AvailabilityLevel::kLow);
      if (availability < 1.0) {
        config.grid.checkpoint_server_faults.enabled = true;
        config.grid.checkpoint_server_faults.mttr = kMttr;
        config.grid.checkpoint_server_faults.mtbf =
            availability / (1.0 - availability) * kMttr;
      }
      config.workload = sim::make_paper_workload(config.grid, 25000.0,
                                                 workload::Intensity::kLow, num_bots);
      config.policy = policy;
      config.warmup_bots = num_bots / 10;
      cells.push_back({"a=" + util::format_double(availability, 2) + "/" +
                           sched::to_string(policy),
                       config});
    }
  }

  exp::ExperimentRunner runner(options);
  const auto results = runner.run(cells);

  util::Table table({"server avail", "policy", "mean turnaround [s]", "95% CI +-",
                     "p95 [s]", "p99 [s]", "retries/run", "degraded/run", "saturated"});
  std::size_t index = 0;
  for (double availability : availabilities) {
    for (sched::PolicyKind policy : policies) {
      const exp::CellResult& cell = results[index++];
      const auto ci = cell.turnaround_ci();
      table.add_row({util::format_double(availability, 2), sched::to_string(policy),
                     util::format_double(ci.mean, 0), util::format_double(ci.half_width, 0),
                     util::format_double(cell.turnaround_tail.quantile(0.95), 0),
                     util::format_double(cell.turnaround_tail.quantile(0.99), 0),
                     util::format_double(cell.transfer_retries.mean(), 1),
                     util::format_double(cell.replicas_degraded.mean(), 1),
                     cell.saturated() ? "yes" : "no"});
    }
  }
  table.render(std::cout);
  return 0;
}

}  // namespace

int main() { return dg::bench::guarded_main("ablation_server_faults", run); }
