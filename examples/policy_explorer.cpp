// Policy explorer: a full command-line front end to the simulator.
//
//   $ ./policy_explorer --policy LongIdle --availability low --het true \
//         --granularity 25000 --intensity high --bots 50 --seed 3 --verbose
//
// Exposes every public configuration knob (grid, workload, policy,
// individual scheduler, replication control) and prints the aggregate
// metrics plus, with --verbose, a per-bag table.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>

#include "sim/config_io.hpp"
#include "sim/simulation.hpp"
#include "util/arg_parser.hpp"
#include "util/table.hpp"

namespace {

/// Bag ids are 32-bit, so a run holds at most this many bags.
constexpr std::uint64_t kMaxBots = std::numeric_limits<dg::workload::BotId>::max();

dg::sched::PolicyKind parse_policy(const std::string& name) {
  using dg::sched::PolicyKind;
  if (name == "FCFS-Excl" || name == "fcfs-excl") return PolicyKind::kFcfsExcl;
  if (name == "FCFS-Share" || name == "fcfs-share") return PolicyKind::kFcfsShare;
  if (name == "RR" || name == "rr") return PolicyKind::kRoundRobin;
  if (name == "RR-NRF" || name == "rr-nrf") return PolicyKind::kRoundRobinNrf;
  if (name == "LongIdle" || name == "longidle") return PolicyKind::kLongIdle;
  if (name == "Random" || name == "random") return PolicyKind::kRandom;
  if (name == "SJF-Bag" || name == "sjf" || name == "sjf-bag") {
    return PolicyKind::kShortestBagFirst;
  }
  if (name == "PF-RR" || name == "pf-rr" || name == "pendingfirst") {
    return PolicyKind::kPendingFirst;
  }
  throw std::invalid_argument(
      "unknown policy: " + name +
      " (use FCFS-Excl|FCFS-Share|RR|RR-NRF|LongIdle|Random|SJF-Bag|PF-RR)");
}

dg::sched::IndividualSchedulerKind parse_individual(const std::string& name) {
  using dg::sched::IndividualSchedulerKind;
  if (name == "WorkQueue" || name == "workqueue") return IndividualSchedulerKind::kWorkQueue;
  if (name == "WQR" || name == "wqr") return IndividualSchedulerKind::kWqr;
  if (name == "WQR-FT" || name == "wqr-ft") return IndividualSchedulerKind::kWqrFt;
  if (name == "KB-LTF" || name == "kb") return IndividualSchedulerKind::kKnowledgeBased;
  throw std::invalid_argument("unknown individual scheduler: " + name);
}

dg::grid::AvailabilityLevel parse_availability(const std::string& name) {
  using dg::grid::AvailabilityLevel;
  if (name == "high") return AvailabilityLevel::kHigh;
  if (name == "med" || name == "medium") return AvailabilityLevel::kMed;
  if (name == "low") return AvailabilityLevel::kLow;
  if (name == "always" || name == "none") return AvailabilityLevel::kAlways;
  throw std::invalid_argument("unknown availability: " + name + " (high|med|low|always)");
}

dg::workload::ArrivalProcess parse_arrivals(const std::string& name) {
  using dg::workload::ArrivalProcess;
  if (name == "poisson") return ArrivalProcess::kPoisson;
  if (name == "uniform" || name == "jitter") return ArrivalProcess::kUniformJitter;
  if (name == "bursty") return ArrivalProcess::kBursty;
  throw std::invalid_argument("unknown arrivals: " + name + " (poisson|uniform|bursty)");
}

dg::workload::Intensity parse_intensity(const std::string& name) {
  using dg::workload::Intensity;
  if (name == "low") return Intensity::kLow;
  if (name == "med" || name == "medium") return Intensity::kMed;
  if (name == "high") return Intensity::kHigh;
  throw std::invalid_argument("unknown intensity: " + name + " (low|med|high)");
}

/// The whole CLI; main() reports anything it throws.
int explore(int argc, char** argv) {
  using namespace dg;
  util::ArgParser parser("policy_explorer",
                         "simulate one multi-BoT scheduling scenario end to end");
  parser.add_option("policy", "FCFS-Share",
                    "bag selection: FCFS-Excl|FCFS-Share|RR|RR-NRF|LongIdle|Random");
  parser.add_option("individual", "WQR-FT", "individual scheduler: WorkQueue|WQR|WQR-FT|KB-LTF");
  parser.add_option("availability", "high", "grid availability: high|med|low|always");
  parser.add_flag("het", "heterogeneous machine powers (Uniform[2.3,17.7])");
  parser.add_option("granularity", "5000", "mean task size [s on a P=1 machine]");
  parser.add_option("intensity", "low", "target utilization: low (50%)|med (75%)|high (90%)");
  parser.add_option("bots", "30", "number of BoT applications");
  parser.add_option("arrivals", "poisson", "arrival process: poisson|uniform|bursty");
  parser.add_option("bag-size", "2500000", "total work per bag [s on a P=1 machine]");
  parser.add_option("threshold", "0", "replication threshold override (0 = default)");
  parser.add_flag("dynamic-replication", "adaptive replication threshold");
  parser.add_option("seed", "1", "random seed");
  parser.add_option("config", "", "INI experiment file (overrides the other options)");
  parser.add_option("save-config", "", "write the effective configuration to this INI file");
  parser.add_flag("verbose", "print the per-bag table");

  if (!parser.parse(argc, argv)) return 1;

  sim::SimulationConfig config;
  if (const std::string path = parser.get("config"); !path.empty()) {
    std::ifstream file(path);
    if (!file) throw std::runtime_error("cannot open " + path);
    config = sim::load_simulation_config(file);
  } else {
    config.grid = grid::GridConfig::preset(
        parser.get_flag("het") ? grid::Heterogeneity::kHet : grid::Heterogeneity::kHom,
        parse_availability(parser.get("availability")));
    const std::uint64_t bots = parser.get_unsigned("bots", kMaxBots);
    if (bots == 0) throw std::invalid_argument("--bots must be at least 1");
    config.workload = sim::make_paper_workload(
        config.grid, parser.get_positive("granularity"),
        parse_intensity(parser.get("intensity")), static_cast<std::size_t>(bots),
        parser.get_positive("bag-size"));
    config.workload.arrivals = parse_arrivals(parser.get("arrivals"));
    config.policy = parse_policy(parser.get("policy"));
    config.individual = parse_individual(parser.get("individual"));
    config.replication_threshold = static_cast<int>(
        parser.get_unsigned("threshold", static_cast<std::uint64_t>(INT_MAX)));
    config.dynamic_replication = parser.get_flag("dynamic-replication");
    config.seed = parser.get_unsigned("seed");
  }
  if (const std::string path = parser.get("save-config"); !path.empty()) {
    std::ofstream out(path);
    sim::save_simulation_config(out, config);
    std::printf("configuration written to %s\n", path.c_str());
  }

  std::printf("grid      : %s (%zu machines expected)\n", config.grid.name().c_str(),
              static_cast<std::size_t>(config.grid.total_power / config.grid.hom_power));
  std::printf("workload  : %s\n", config.workload.name().c_str());
  std::printf("scheduler : %s over %s\n", sched::to_string(config.policy).c_str(),
              sched::to_string(config.individual).c_str());

  const sim::SimulationResult result = sim::Simulation(config).run();

  std::printf("\ncompleted   : %zu/%zu bags%s\n", result.bots_completed, result.bots.size(),
              result.saturated ? "  (SATURATED at horizon)" : "");
  std::printf("turnaround  : mean %.0f s (min %.0f, max %.0f)\n", result.turnaround.mean(),
              result.turnaround.min(), result.turnaround.max());
  std::printf("            = waiting %.0f s + makespan %.0f s\n", result.waiting.mean(),
              result.makespan.mean());
  std::printf("utilization : %.3f   measured availability: %.3f\n", result.utilization,
              result.measured_availability);
  std::printf("failures    : %llu machine, %llu replica\n",
              static_cast<unsigned long long>(result.machine_failures),
              static_cast<unsigned long long>(result.replica_failures));
  std::printf("checkpoints : %llu saved, %llu retrieved\n",
              static_cast<unsigned long long>(result.checkpoints_saved),
              static_cast<unsigned long long>(result.checkpoint_retrievals));
  std::printf("replicas    : %llu started, %.1f%% of compute wasted, %.0f s work lost\n",
              static_cast<unsigned long long>(result.replicas_started),
              100.0 * result.wasted_fraction(), result.lost_work);
  std::printf("simulated   : %.0f s wall (%llu events)\n", result.end_time,
              static_cast<unsigned long long>(result.events_executed));

  if (parser.get_flag("verbose")) {
    util::Table table({"bag", "tasks", "arrival [s]", "waiting [s]", "makespan [s]",
                       "turnaround [s]", "done"});
    for (const sim::BotRecord& bot : result.bots) {
      table.add_row({std::to_string(bot.id), std::to_string(bot.num_tasks),
                     util::format_double(bot.arrival_time, 0),
                     util::format_double(bot.waiting_time, 0),
                     util::format_double(bot.makespan, 0),
                     util::format_double(bot.turnaround, 0), bot.completed ? "yes" : "NO"});
    }
    std::printf("\n");
    table.render(std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return explore(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "policy_explorer: %s\n", e.what());
    return 1;
  }
}
