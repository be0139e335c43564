// Campaign runner: execute a batch of INI experiment files.
//
//   $ ./campaign_runner exp1.ini exp2.ini ... [--reps 3] [--out results]
//
// Each file describes one scenario (see src/sim/config_io.hpp); the runner
// replicates it with derived seeds, prints a comparison table, and (with
// --out) writes per-bag and monitor CSVs for every experiment — the glue
// that turns the library into a batch experimentation tool.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <vector>

#include "rng/splitmix64.hpp"
#include "sim/config_io.hpp"
#include "sim/result_io.hpp"
#include "sim/simulation.hpp"
#include "stats/confidence.hpp"
#include "util/arg_parser.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dg;
  util::ArgParser parser("campaign_runner", "run a batch of INI experiment files");
  parser.add_option("reps", "3", "replications per experiment");
  parser.add_option("out", "", "prefix for per-experiment CSV exports (empty = none)");
  if (!parser.parse(argc, argv)) return 1;
  std::vector<std::string> files = parser.positional();
  if (files.empty()) {
    // No arguments: demonstrate on the bundled example configuration.
    files.push_back("examples/configs/volunteer_longidle.ini");
    std::ifstream probe(files.back());
    if (!probe) {
      std::cout << "usage: campaign_runner <experiment.ini> ... (no bundled config found)\n";
      return 0;
    }
    std::cout << "(no files given; running the bundled " << files.back() << ")\n\n";
  }
  std::size_t reps = 0;
  try {
    reps = static_cast<std::size_t>(
        parser.get_unsigned("reps", std::numeric_limits<std::uint32_t>::max()));
    if (reps == 0) throw std::invalid_argument("--reps must be at least 1");
  } catch (const std::invalid_argument& e) {
    std::cerr << "campaign_runner: " << e.what() << "\n";
    return 1;
  }

  util::Table table({"experiment", "policy", "mean turnaround [s]", "95% CI +-",
                     "utilization", "saturated"});
  for (const std::string& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "campaign_runner: cannot open " << file << "\n";
      return 1;
    }
    sim::SimulationConfig config;
    try {
      config = sim::load_simulation_config(in);
    } catch (const std::exception& e) {
      std::cerr << "campaign_runner: " << file << ": " << e.what() << "\n";
      return 1;
    }

    stats::OnlineStats turnaround, utilization;
    bool saturated = false;
    sim::SimulationResult last;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      sim::SimulationConfig replicated = config;
      replicated.seed = rng::mix_seed(config.seed, rep);
      last = sim::Simulation(replicated).run();
      turnaround.add(last.turnaround.mean());
      utilization.add(last.utilization);
      saturated |= last.saturated;
    }
    const stats::ConfidenceInterval ci = stats::mean_confidence_interval(turnaround);
    table.add_row({file, sched::to_string(config.policy),
                   util::format_double(ci.mean, 0), util::format_double(ci.half_width, 0),
                   util::format_double(utilization.mean(), 3), saturated ? "yes" : "no"});

    if (const std::string prefix = parser.get("out"); !prefix.empty()) {
      // Export the last replication's details.
      std::string stem = file;
      if (auto slash = stem.find_last_of('/'); slash != std::string::npos) {
        stem = stem.substr(slash + 1);
      }
      if (auto dot = stem.find_last_of('.'); dot != std::string::npos) stem = stem.substr(0, dot);
      std::ofstream bots_csv(prefix + "_" + stem + "_bots.csv");
      sim::write_bot_records_csv(bots_csv, last);
      std::ofstream monitor_csv(prefix + "_" + stem + "_monitor.csv");
      sim::write_monitor_csv(monitor_csv, last);
      std::ofstream summary(prefix + "_" + stem + "_summary.txt");
      sim::write_summary(summary, last);
    }
  }
  table.render(std::cout);
  return 0;
}
