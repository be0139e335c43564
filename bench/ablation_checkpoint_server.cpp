// Ablation: checkpoint-server capacity.
//
// The paper assumes "one or more Checkpoint Servers" and models transfers as
// pure Uniform[240,720] s delays — implicitly infinite transfer capacity.
// This ablation bounds the server's concurrent-transfer slots and measures
// when contention starts to matter: with ~100 machines checkpointing every
// Young interval, low-availability grids generate enough traffic that a
// small server becomes the bottleneck.
#include <iostream>

#include "exp/runner.hpp"
#include "util/table.hpp"

#include "guarded_main.hpp"

namespace {

int run() {
  using namespace dg;
  exp::RunOptions options = exp::RunOptions::from_env();
  const std::size_t num_bots = exp::env_num_bots().value_or(40);

  const std::size_t capacities[] = {0, 16, 4, 1};  // 0 = unlimited (paper)
  const double granularities[] = {25000.0, 125000.0};

  std::cout << "=== Ablation: checkpoint-server transfer slots (Hom-LowAvail, RR,"
               " WQR-FT) ===\n"
            << "capacity 0 = the paper's pure-delay model.\n\n";

  std::vector<exp::NamedConfig> cells;
  for (double granularity : granularities) {
    for (std::size_t capacity : capacities) {
      sim::SimulationConfig config;
      config.grid = grid::GridConfig::preset(grid::Heterogeneity::kHom,
                                             grid::AvailabilityLevel::kLow);
      config.grid.checkpoint_server_capacity = capacity;
      config.workload = sim::make_paper_workload(config.grid, granularity,
                                                 workload::Intensity::kLow, num_bots);
      config.policy = sched::PolicyKind::kRoundRobin;
      config.warmup_bots = num_bots / 10;
      cells.push_back({"g=" + util::format_double(granularity, 0) +
                           "/slots=" + std::to_string(capacity),
                       config});
    }
  }

  exp::ExperimentRunner runner(options);
  const auto results = runner.run(cells);

  util::Table table({"granularity [s]", "transfer slots", "mean turnaround [s]", "95% CI +-",
                     "saturated"});
  std::size_t index = 0;
  for (double granularity : granularities) {
    for (std::size_t capacity : capacities) {
      const exp::CellResult& cell = results[index++];
      const auto ci = cell.turnaround_ci();
      table.add_row({util::format_double(granularity, 0),
                     capacity == 0 ? "unlimited" : std::to_string(capacity),
                     util::format_double(ci.mean, 0), util::format_double(ci.half_width, 0),
                     cell.saturated() ? "yes" : "no"});
    }
  }
  table.render(std::cout);
  return 0;
}

}  // namespace

int main() { return dg::bench::guarded_main("ablation_checkpoint_server", run); }
