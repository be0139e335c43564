#include "sim/config_io.hpp"

#include <limits>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/ini.hpp"
#include "util/parse.hpp"

namespace dg::sim {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("simulation config: " + message);
}

/// Fails naming [section] key and its value unless `ok`.
void require(bool ok, const util::IniFile& ini, std::string_view section, std::string_view key,
             std::string_view requirement) {
  if (!ok) {
    fail("[" + std::string(section) + "] " + std::string(key) + " must be " +
         std::string(requirement) + ", got '" + ini.get(section, key).value_or("") + "'");
  }
}

/// [section] key as a positive finite number, or nullopt when absent.
std::optional<double> get_positive(const util::IniFile& ini, std::string_view section,
                                   std::string_view key) {
  const auto value = ini.get_double(section, key);
  if (value) require(*value > 0.0, ini, section, key, "positive");
  return value;
}

void check_known_keys(const util::IniFile& ini, std::string_view section,
                      const std::set<std::string>& known) {
  for (const std::string& key : ini.keys(section)) {
    if (!known.contains(key)) {
      fail("unknown key '" + key + "' in section [" + std::string(section) + "]");
    }
  }
}

/// The comma-separated [workload] granularities, each a positive number.
std::vector<double> parse_granularities(const util::IniFile& ini, const std::string& text) {
  std::vector<double> values;
  std::istringstream iss(text);
  std::string item;
  while (std::getline(iss, item, ',')) {
    const std::string_view trimmed = util::trim(item);
    if (trimmed.empty()) continue;
    const auto value = util::parse_finite(trimmed);
    require(value && *value > 0.0, ini, "workload", "granularities",
            "a list of positive numbers");
    values.push_back(*value);
  }
  return values;
}

}  // namespace

SimulationConfig load_simulation_config(std::istream& is) {
  const util::IniFile ini = util::IniFile::parse(is);
  for (const std::string& section : ini.sections()) {
    if (section != "grid" && section != "workload" && section != "scheduler" &&
        section != "run" && section != "checkpoint_server" && section != "robustness" &&
        !section.empty()) {
      fail("unknown section [" + section + "]");
    }
  }
  SimulationConfig config;
  constexpr auto kIntMax = static_cast<std::uint64_t>(std::numeric_limits<int>::max());

  // --- [grid] ---
  check_known_keys(ini, "grid",
                   {"heterogeneity", "availability", "total_power", "hom_power",
                    "het_power_lo", "het_power_hi", "outages", "outage_fraction",
                    "outage_interarrival", "outage_duration_lo", "outage_duration_hi",
                    "checkpoint_server_capacity"});
  if (auto text = ini.get("grid", "heterogeneity")) {
    if (*text == "Hom" || *text == "hom") {
      config.grid.heterogeneity = grid::Heterogeneity::kHom;
    } else if (*text == "Het" || *text == "het") {
      config.grid.heterogeneity = grid::Heterogeneity::kHet;
    } else {
      fail("heterogeneity must be Hom or Het, got '" + *text + "'");
    }
  }
  if (auto text = ini.get("grid", "availability")) {
    if (auto level = grid::parse_availability_level(*text)) {
      config.grid.availability = grid::AvailabilityModel::for_level(*level);
    } else {
      const auto target = util::parse_finite(*text);
      require(target && *target > 0.0 && *target < 1.0, ini, "grid", "availability",
              "high|med|low|always or a number in (0, 1)");
      config.grid.availability = grid::AvailabilityModel::from_availability(*target);
    }
  }
  if (auto v = get_positive(ini, "grid", "total_power")) config.grid.total_power = *v;
  if (auto v = get_positive(ini, "grid", "hom_power")) config.grid.hom_power = *v;
  if (auto v = get_positive(ini, "grid", "het_power_lo")) config.grid.het_power_lo = *v;
  if (auto v = get_positive(ini, "grid", "het_power_hi")) config.grid.het_power_hi = *v;
  if (config.grid.het_power_lo > config.grid.het_power_hi) {
    fail("het_power_lo must be <= het_power_hi");
  }
  // The grid adds machines until it reaches total_power; their ids must fit.
  const double smallest_power = config.grid.heterogeneity == grid::Heterogeneity::kHom
                                    ? config.grid.hom_power
                                    : config.grid.het_power_lo;
  if (!(config.grid.total_power / smallest_power <
        static_cast<double>(grid::DesktopGrid::kNoMachine))) {
    fail("total_power / machine power needs more machines than a grid can hold");
  }
  if (auto v = ini.get_bool("grid", "outages")) config.grid.outages.enabled = *v;
  if (auto v = ini.get_double("grid", "outage_fraction")) {
    require(*v > 0.0 && *v <= 1.0, ini, "grid", "outage_fraction", "in (0, 1]");
    config.grid.outages.fraction = *v;
  }
  if (auto v = get_positive(ini, "grid", "outage_interarrival")) {
    config.grid.outages.mean_interarrival = *v;
  }
  if (auto v = ini.get_unsigned("grid", "checkpoint_server_capacity")) {
    config.grid.checkpoint_server_capacity = static_cast<std::size_t>(*v);
  }
  {
    const auto lo = ini.get_double("grid", "outage_duration_lo");
    const auto hi = ini.get_double("grid", "outage_duration_hi");
    if (lo.has_value() != hi.has_value()) {
      fail("outage_duration_lo and outage_duration_hi must be given together");
    }
    if (lo) {
      if (!(*lo > 0.0) || !(*hi >= *lo)) {
        fail("outage durations must satisfy 0 < outage_duration_lo <= outage_duration_hi");
      }
      config.grid.outages.duration = rng::UniformDist{*lo, *hi};
    }
  }

  // --- [checkpoint_server] ---
  check_known_keys(ini, "checkpoint_server",
                   {"capacity", "release_slots", "faults", "mtbf", "mttr", "abort_transfers",
                    "lose_data", "retry_max_attempts", "retry_backoff_base",
                    "retry_backoff_cap", "attempt_timeout"});
  if (auto v = ini.get_unsigned("checkpoint_server", "capacity")) {
    if (ini.get("grid", "checkpoint_server_capacity")) {
      fail("give checkpoint-server capacity in [grid] or [checkpoint_server], not both");
    }
    config.grid.checkpoint_server_capacity = static_cast<std::size_t>(*v);
  }
  if (auto v = ini.get_bool("checkpoint_server", "release_slots")) {
    config.grid.checkpoint_server_release_slots = *v;
  }
  auto& faults = config.grid.checkpoint_server_faults;
  if (auto v = ini.get_bool("checkpoint_server", "faults")) faults.enabled = *v;
  if (auto v = get_positive(ini, "checkpoint_server", "mtbf")) faults.mtbf = *v;
  if (auto v = get_positive(ini, "checkpoint_server", "mttr")) faults.mttr = *v;
  if (auto v = ini.get_bool("checkpoint_server", "abort_transfers")) faults.abort_transfers = *v;
  if (auto v = ini.get_bool("checkpoint_server", "lose_data")) faults.lose_data = *v;
  if (auto v = ini.get_unsigned("checkpoint_server", "retry_max_attempts", kIntMax)) {
    require(*v >= 1, ini, "checkpoint_server", "retry_max_attempts", ">= 1");
    config.checkpoint_retry.max_attempts = static_cast<int>(*v);
  }
  if (auto v = get_positive(ini, "checkpoint_server", "retry_backoff_base")) {
    config.checkpoint_retry.backoff_base = *v;
  }
  if (auto v = get_positive(ini, "checkpoint_server", "retry_backoff_cap")) {
    config.checkpoint_retry.backoff_cap = *v;
  }
  if (config.checkpoint_retry.backoff_cap < config.checkpoint_retry.backoff_base) {
    fail("retry_backoff_cap must be >= retry_backoff_base");
  }
  if (auto v = ini.get_double("checkpoint_server", "attempt_timeout")) {
    require(*v >= 0.0, ini, "checkpoint_server", "attempt_timeout",
            ">= 0 (0 disables the timeout)");
    config.checkpoint_retry.attempt_timeout = *v;
  }

  // --- [workload] ---
  check_known_keys(ini, "workload",
                   {"granularity", "granularities", "spread", "bag_size", "num_bots",
                    "utilization", "arrival_rate", "arrivals", "burst_intensity",
                    "burst_fraction"});
  const double spread = ini.get_double("workload", "spread").value_or(0.5);
  require(spread >= 0.0 && spread < 1.0, ini, "workload", "spread", "in [0, 1)");
  if (ini.get("workload", "granularity") && ini.get("workload", "granularities")) {
    fail("give either granularity or granularities, not both");
  }
  if (auto v = get_positive(ini, "workload", "granularity")) {
    config.workload.types = {workload::BotType{*v, spread}};
  } else if (auto text = ini.get("workload", "granularities")) {
    config.workload.types.clear();
    for (double g : parse_granularities(ini, *text)) {
      config.workload.types.push_back(workload::BotType{g, spread});
    }
    if (config.workload.types.empty()) fail("granularities list is empty");
  } else {
    config.workload.types = {workload::BotType{5000.0, spread}};
  }
  if (auto v = get_positive(ini, "workload", "bag_size")) config.workload.bag_size = *v;
  if (auto v = ini.get_unsigned("workload", "num_bots")) {
    require(*v >= 1, ini, "workload", "num_bots", ">= 1");
    config.workload.num_bots = static_cast<std::size_t>(*v);
  }
  if (ini.get("workload", "utilization") && ini.get("workload", "arrival_rate")) {
    fail("give either utilization or arrival_rate, not both");
  }
  if (auto v = get_positive(ini, "workload", "utilization")) {
    config.workload.arrival_rate = workload::arrival_rate_for_utilization(
        *v, config.workload.bag_size, workload::effective_grid_power(config.grid));
  } else if (auto v2 = get_positive(ini, "workload", "arrival_rate")) {
    config.workload.arrival_rate = *v2;
  } else {
    config.workload.arrival_rate = workload::arrival_rate_for_utilization(
        0.5, config.workload.bag_size, workload::effective_grid_power(config.grid));
  }
  if (auto text = ini.get("workload", "arrivals")) {
    if (auto process = workload::parse_arrival_process(*text)) {
      config.workload.arrivals = *process;
    } else {
      fail("arrivals must be Poisson|UniformJitter|Bursty, got '" + *text + "'");
    }
  }
  if (auto v = ini.get_double("workload", "burst_intensity")) {
    require(*v > 1.0, ini, "workload", "burst_intensity", "> 1");
    config.workload.burst_intensity = *v;
  }
  if (auto v = ini.get_double("workload", "burst_fraction")) {
    require(*v > 0.0 && *v < 1.0, ini, "workload", "burst_fraction", "in (0, 1)");
    config.workload.burst_fraction = *v;
  }

  // --- [scheduler] ---
  check_known_keys(ini, "scheduler",
                   {"policy", "individual", "replication_threshold", "dynamic_replication"});
  if (auto text = ini.get("scheduler", "policy")) {
    if (auto kind = sched::parse_policy_kind(*text)) {
      config.policy = *kind;
    } else {
      fail("unknown policy '" + *text + "'");
    }
  }
  if (auto text = ini.get("scheduler", "individual")) {
    if (auto kind = sched::parse_individual_kind(*text)) {
      config.individual = *kind;
    } else {
      fail("unknown individual scheduler '" + *text + "'");
    }
  }
  if (auto v = ini.get_unsigned("scheduler", "replication_threshold", kIntMax)) {
    config.replication_threshold = static_cast<int>(*v);
  }
  if (auto v = ini.get_bool("scheduler", "dynamic_replication")) {
    config.dynamic_replication = *v;
  }

  // --- [robustness] ---
  check_known_keys(ini, "robustness",
                   {"adversary", "num_windows", "window_duration", "lead_fraction", "spacing",
                    "burst_intensity", "hit_machines", "outage_fraction", "hit_server"});
  auto& adversary = config.adversary;
  if (auto v = ini.get_bool("robustness", "adversary")) adversary.enabled = *v;
  if (auto v = ini.get_unsigned("robustness", "num_windows")) {
    require(*v >= 1, ini, "robustness", "num_windows", ">= 1");
    adversary.num_windows = static_cast<std::size_t>(*v);
  }
  if (auto v = get_positive(ini, "robustness", "window_duration")) {
    adversary.window_duration = *v;
  }
  if (auto v = ini.get_double("robustness", "lead_fraction")) {
    require(*v >= 0.0 && *v < 1.0, ini, "robustness", "lead_fraction", "in [0, 1)");
    adversary.lead_fraction = *v;
  }
  if (auto v = ini.get_double("robustness", "spacing")) {
    require(*v >= 0.0, ini, "robustness", "spacing", ">= 0 (0 = spread over the arrival span)");
    adversary.spacing = *v;
  }
  if (auto v = ini.get_double("robustness", "burst_intensity")) {
    require(*v >= 1.0, ini, "robustness", "burst_intensity", ">= 1");
    adversary.burst_intensity = *v;
  }
  if (auto v = ini.get_bool("robustness", "hit_machines")) adversary.hit_machines = *v;
  if (auto v = ini.get_double("robustness", "outage_fraction")) {
    require(*v > 0.0 && *v <= 1.0, ini, "robustness", "outage_fraction", "in (0, 1]");
    adversary.outage_fraction = *v;
  }
  if (auto v = ini.get_bool("robustness", "hit_server")) adversary.hit_server = *v;

  // --- [run] ---
  check_known_keys(ini, "run", {"seed", "warmup_bots", "max_sim_time", "monitor_interval"});
  if (auto v = ini.get_unsigned("run", "seed")) config.seed = *v;
  if (auto v = ini.get_unsigned("run", "warmup_bots")) {
    require(*v < config.workload.num_bots, ini, "run", "warmup_bots",
            "below [workload] num_bots (" + std::to_string(config.workload.num_bots) + ")");
    config.warmup_bots = static_cast<std::size_t>(*v);
  }
  if (auto v = ini.get_double("run", "max_sim_time")) config.max_sim_time = *v;
  if (auto v = ini.get_double("run", "monitor_interval")) config.monitor_interval = *v;

  return config;
}

void save_simulation_config(std::ostream& os, const SimulationConfig& config) {
  util::IniFile ini;
  auto number = [](double v) {
    std::ostringstream oss;
    oss.precision(17);
    oss << v;
    return oss.str();
  };

  ini.set("grid", "heterogeneity", grid::to_string(config.grid.heterogeneity));
  if (config.grid.availability.failures_enabled) {
    ini.set("grid", "availability", number(config.grid.availability.availability()));
  } else {
    ini.set("grid", "availability", "always");
  }
  ini.set("grid", "total_power", number(config.grid.total_power));
  ini.set("grid", "hom_power", number(config.grid.hom_power));
  ini.set("grid", "het_power_lo", number(config.grid.het_power_lo));
  ini.set("grid", "het_power_hi", number(config.grid.het_power_hi));
  if (config.grid.outages.enabled) {
    ini.set("grid", "outages", "true");
    ini.set("grid", "outage_fraction", number(config.grid.outages.fraction));
    ini.set("grid", "outage_interarrival", number(config.grid.outages.mean_interarrival));
    config.grid.outages.duration.visit([&](const auto& duration) {
      if constexpr (std::is_same_v<std::decay_t<decltype(duration)>, rng::UniformDist>) {
        ini.set("grid", "outage_duration_lo", number(duration.lo));
        ini.set("grid", "outage_duration_hi", number(duration.hi));
      }
    });
  }
  if (config.grid.checkpoint_server_capacity != 0) {
    ini.set("grid", "checkpoint_server_capacity",
            std::to_string(config.grid.checkpoint_server_capacity));
  }
  if (!config.grid.checkpoint_server_release_slots) {
    ini.set("checkpoint_server", "release_slots", "false");
  }
  const auto& faults = config.grid.checkpoint_server_faults;
  if (faults.enabled) {
    ini.set("checkpoint_server", "faults", "true");
    ini.set("checkpoint_server", "mtbf", number(faults.mtbf));
    ini.set("checkpoint_server", "mttr", number(faults.mttr));
    ini.set("checkpoint_server", "abort_transfers", faults.abort_transfers ? "true" : "false");
    ini.set("checkpoint_server", "lose_data", faults.lose_data ? "true" : "false");
  }
  // The retry policy applies whenever the server can go down.
  if (faults.enabled || (config.adversary.enabled && config.adversary.hit_server)) {
    ini.set("checkpoint_server", "retry_max_attempts",
            std::to_string(config.checkpoint_retry.max_attempts));
    ini.set("checkpoint_server", "retry_backoff_base",
            number(config.checkpoint_retry.backoff_base));
    ini.set("checkpoint_server", "retry_backoff_cap",
            number(config.checkpoint_retry.backoff_cap));
    ini.set("checkpoint_server", "attempt_timeout",
            number(config.checkpoint_retry.attempt_timeout));
  }

  if (config.workload.types.size() == 1) {
    ini.set("workload", "granularity", number(config.workload.types[0].granularity));
  } else {
    std::string list;
    for (std::size_t i = 0; i < config.workload.types.size(); ++i) {
      if (i != 0) list += ", ";
      list += number(config.workload.types[i].granularity);
    }
    ini.set("workload", "granularities", list);
  }
  if (!config.workload.types.empty()) {
    ini.set("workload", "spread", number(config.workload.types[0].spread));
  }
  ini.set("workload", "bag_size", number(config.workload.bag_size));
  ini.set("workload", "num_bots", std::to_string(config.workload.num_bots));
  ini.set("workload", "arrival_rate", number(config.workload.arrival_rate));
  ini.set("workload", "arrivals", workload::to_string(config.workload.arrivals));
  if (config.workload.arrivals == workload::ArrivalProcess::kBursty) {
    ini.set("workload", "burst_intensity", number(config.workload.burst_intensity));
    ini.set("workload", "burst_fraction", number(config.workload.burst_fraction));
  }

  ini.set("scheduler", "policy", sched::to_string(config.policy));
  ini.set("scheduler", "individual", sched::to_string(config.individual));
  ini.set("scheduler", "replication_threshold", std::to_string(config.replication_threshold));
  ini.set("scheduler", "dynamic_replication", config.dynamic_replication ? "true" : "false");

  if (config.adversary.enabled) {
    const auto& adversary = config.adversary;
    ini.set("robustness", "adversary", "true");
    ini.set("robustness", "num_windows", std::to_string(adversary.num_windows));
    ini.set("robustness", "window_duration", number(adversary.window_duration));
    ini.set("robustness", "lead_fraction", number(adversary.lead_fraction));
    ini.set("robustness", "spacing", number(adversary.spacing));
    ini.set("robustness", "burst_intensity", number(adversary.burst_intensity));
    ini.set("robustness", "hit_machines", adversary.hit_machines ? "true" : "false");
    ini.set("robustness", "outage_fraction", number(adversary.outage_fraction));
    ini.set("robustness", "hit_server", adversary.hit_server ? "true" : "false");
  }

  ini.set("run", "seed", std::to_string(config.seed));
  ini.set("run", "warmup_bots", std::to_string(config.warmup_bots));
  if (config.max_sim_time > 0.0) ini.set("run", "max_sim_time", number(config.max_sim_time));
  if (config.monitor_interval > 0.0) {
    ini.set("run", "monitor_interval", number(config.monitor_interval));
  }

  os << ini.to_string();
}

}  // namespace dg::sim
