// Extension: PF-RR, one knowledge-free policy for all granularities.
//
// The paper closes: "further research is required in order to devise a
// single scheduling strategy able to properly work for all task
// granularities". PF-RR is our candidate: pending tasks are served strictly
// FCFS (what makes FCFS-Share win at small granularities), but replication
// only starts when no bag has pending work and then spreads round-robin
// (what makes RR win at large granularities). This bench pits it against
// the best paper policy in each regime, across both availability extremes.
#include <iostream>

#include "exp/runner.hpp"
#include "util/table.hpp"

#include "guarded_main.hpp"

namespace {

int run() {
  using namespace dg;
  exp::RunOptions options = exp::RunOptions::from_env();
  const std::size_t num_bots = exp::env_num_bots().value_or(80);

  std::cout << "=== Extension: PF-RR hybrid vs the paper's policies ===\n"
            << "A single knowledge-free strategy should match FCFS-Share at small\n"
            << "granularities AND RR at large ones.\n\n";

  const sched::PolicyKind policies[] = {sched::PolicyKind::kFcfsShare,
                                        sched::PolicyKind::kRoundRobin,
                                        sched::PolicyKind::kLongIdle,
                                        sched::PolicyKind::kPendingFirst};

  for (grid::AvailabilityLevel level :
       {grid::AvailabilityLevel::kHigh, grid::AvailabilityLevel::kLow}) {
    for (workload::Intensity intensity :
         {workload::Intensity::kLow, workload::Intensity::kHigh}) {
      const grid::GridConfig grid_config =
          grid::GridConfig::preset(grid::Heterogeneity::kHom, level);
      std::vector<exp::NamedConfig> cells;
      for (double granularity : workload::kPaperGranularities) {
        for (sched::PolicyKind policy : policies) {
          sim::SimulationConfig config;
          config.grid = grid_config;
          config.workload =
              sim::make_paper_workload(grid_config, granularity, intensity, num_bots);
          config.policy = policy;
          config.warmup_bots = num_bots / 10;
          cells.push_back({util::format_double(granularity, 0) + "/" +
                               sched::to_string(policy),
                           config});
        }
      }
      exp::ExperimentRunner runner(options);
      const auto results = runner.run(cells);

      std::vector<std::string> header{"granularity [s]"};
      for (sched::PolicyKind policy : policies) header.push_back(sched::to_string(policy));
      util::Table table(std::move(header));
      std::size_t index = 0;
      for (double granularity : workload::kPaperGranularities) {
        std::vector<std::string> row{util::format_double(granularity, 0)};
        for (std::size_t p = 0; p < 4; ++p) {
          const exp::CellResult& cell = results[index++];
          const auto ci = cell.turnaround_ci();
          std::string text = util::format_double(ci.mean, 0);
          if (cell.saturated()) text = ">=" + text + " SAT";
          else text += " +-" + util::format_double(ci.half_width, 0);
          row.push_back(text);
        }
        table.add_row(std::move(row));
      }
      std::cout << "--- " << grid_config.name() << " / "
                << workload::to_string(intensity) << " intensity ---\n";
      table.render(std::cout);
      std::cout << "\n";
    }
  }
  return 0;
}

}  // namespace

int main() { return dg::bench::guarded_main("ext_hybrid_policy", run); }
