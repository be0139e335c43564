// INI parsing and SimulationConfig file I/O.
#include <gtest/gtest.h>

#include <exception>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/config_io.hpp"
#include "util/ini.hpp"

namespace dg {
namespace {

// --- IniFile ---

TEST(Ini, ParsesSectionsAndKeys) {
  const util::IniFile ini = util::IniFile::parse_string(
      "[grid]\n"
      "heterogeneity = Het\n"
      "total_power=1000\n"
      "\n"
      "[run]\n"
      "seed = 42  # trailing comment\n");
  EXPECT_TRUE(ini.has_section("grid"));
  EXPECT_TRUE(ini.has_section("run"));
  EXPECT_EQ(ini.get("grid", "heterogeneity").value(), "Het");
  EXPECT_EQ(ini.get_double("grid", "total_power").value(), 1000.0);
  EXPECT_EQ(ini.get_unsigned("run", "seed").value(), 42u);
}

TEST(Ini, MissingKeysReturnNullopt) {
  const util::IniFile ini = util::IniFile::parse_string("[a]\nx = 1\n");
  EXPECT_FALSE(ini.get("a", "y").has_value());
  EXPECT_FALSE(ini.get("b", "x").has_value());
  EXPECT_EQ(ini.get_or("a", "y", "fallback"), "fallback");
}

TEST(Ini, CommentsAndBlankLinesIgnored) {
  const util::IniFile ini = util::IniFile::parse_string(
      "# full line comment\n"
      "; another\n"
      "\n"
      "[s]\n"
      "k = v\n");
  EXPECT_EQ(ini.get("s", "k").value(), "v");
}

TEST(Ini, BooleanParsing) {
  const util::IniFile ini =
      util::IniFile::parse_string("[s]\na = true\nb = 0\nc = yes\nd = off\n");
  EXPECT_TRUE(ini.get_bool("s", "a").value());
  EXPECT_FALSE(ini.get_bool("s", "b").value());
  EXPECT_TRUE(ini.get_bool("s", "c").value());
  EXPECT_FALSE(ini.get_bool("s", "d").value());
}

TEST(Ini, ErrorsCarryLineNumbers) {
  try {
    (void)util::IniFile::parse_string("[ok]\nx = 1\nbroken-line\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Ini, DuplicateKeyRejected) {
  EXPECT_THROW(util::IniFile::parse_string("[s]\nk = 1\nk = 2\n"), std::runtime_error);
}

TEST(Ini, MalformedSectionRejected) {
  EXPECT_THROW(util::IniFile::parse_string("[oops\n"), std::runtime_error);
}

TEST(Ini, BadNumberRejected) {
  const util::IniFile ini = util::IniFile::parse_string("[s]\nk = 12abc\n");
  EXPECT_THROW((void)ini.get_double("s", "k"), std::runtime_error);
  EXPECT_THROW((void)ini.get_unsigned("s", "k"), std::runtime_error);
  // Whole field, finite; unsigned values are digits only, within the bound.
  for (const char* text : {"inf", "nan", "1e999", "0x10", "+1", "1 2"}) {
    SCOPED_TRACE(text);
    const util::IniFile bad = util::IniFile::parse_string(std::string("[s]\nk = ") + text);
    EXPECT_THROW((void)bad.get_double("s", "k"), std::runtime_error);
  }
  for (const char* text : {"-1", "1.5", "1e3", "18446744073709551616"}) {
    SCOPED_TRACE(text);
    const util::IniFile bad = util::IniFile::parse_string(std::string("[s]\nk = ") + text);
    EXPECT_THROW((void)bad.get_unsigned("s", "k"), std::runtime_error);
  }
  const util::IniFile full = util::IniFile::parse_string("[s]\nk = 18446744073709551615\n");
  EXPECT_EQ(full.get_unsigned("s", "k").value(), 18446744073709551615u);  // a full-range seed
  const util::IniFile small = util::IniFile::parse_string("[s]\nk = 8\n");
  EXPECT_EQ(small.get_unsigned("s", "k", 8).value(), 8u);
  EXPECT_THROW((void)small.get_unsigned("s", "k", 7), std::runtime_error);
}

TEST(Ini, RoundTripsThroughToString) {
  util::IniFile ini;
  ini.set("grid", "total_power", "1000");
  ini.set("run", "seed", "7");
  const util::IniFile reparsed = util::IniFile::parse_string(ini.to_string());
  EXPECT_EQ(reparsed.get("grid", "total_power").value(), "1000");
  EXPECT_EQ(reparsed.get("run", "seed").value(), "7");
}

TEST(Trim, StripsWhitespace) {
  EXPECT_EQ(util::trim("  x \t"), "x");
  EXPECT_EQ(util::trim(""), "");
  EXPECT_EQ(util::trim(" \t "), "");
}

// --- SimulationConfig I/O ---

constexpr const char* kFullConfig =
    "[grid]\n"
    "heterogeneity = Het\n"
    "availability = low\n"
    "outages = true\n"
    "outage_fraction = 0.25\n"
    "outage_interarrival = 5000\n"
    "outage_duration_lo = 1000\n"
    "outage_duration_hi = 2000\n"
    "[workload]\n"
    "granularity = 25000\n"
    "bag_size = 2.5e6\n"
    "num_bots = 40\n"
    "utilization = 0.5\n"
    "arrivals = Bursty\n"
    "burst_intensity = 4\n"
    "burst_fraction = 0.25\n"
    "[scheduler]\n"
    "policy = LongIdle\n"
    "individual = WQR-FT\n"
    "replication_threshold = 3\n"
    "[run]\n"
    "seed = 99\n"
    "warmup_bots = 5\n";

TEST(ConfigIo, LoadsFullConfig) {
  std::istringstream in(kFullConfig);
  const sim::SimulationConfig config = sim::load_simulation_config(in);
  EXPECT_EQ(config.grid.heterogeneity, grid::Heterogeneity::kHet);
  EXPECT_NEAR(config.grid.availability.availability(), 0.5, 1e-9);
  EXPECT_TRUE(config.grid.outages.enabled);
  EXPECT_DOUBLE_EQ(config.grid.outages.fraction, 0.25);
  ASSERT_EQ(config.workload.types.size(), 1u);
  EXPECT_DOUBLE_EQ(config.workload.types[0].granularity, 25000.0);
  EXPECT_EQ(config.workload.num_bots, 40u);
  EXPECT_EQ(config.workload.arrivals, workload::ArrivalProcess::kBursty);
  EXPECT_GT(config.workload.arrival_rate, 0.0);
  EXPECT_EQ(config.policy, sched::PolicyKind::kLongIdle);
  EXPECT_EQ(config.individual, sched::IndividualSchedulerKind::kWqrFt);
  EXPECT_EQ(config.replication_threshold, 3);
  EXPECT_EQ(config.seed, 99u);
  EXPECT_EQ(config.warmup_bots, 5u);
}

TEST(ConfigIo, UtilizationComputesArrivalRate) {
  std::istringstream in(
      "[workload]\ngranularity = 5000\nutilization = 0.9\n[grid]\navailability = high\n");
  const sim::SimulationConfig config = sim::load_simulation_config(in);
  const double expected = workload::arrival_rate_for_utilization(
      0.9, config.workload.bag_size, workload::effective_grid_power(config.grid));
  EXPECT_DOUBLE_EQ(config.workload.arrival_rate, expected);
}

TEST(ConfigIo, NumericAvailabilityTarget) {
  std::istringstream in("[grid]\navailability = 0.925\n");
  const sim::SimulationConfig config = sim::load_simulation_config(in);
  EXPECT_NEAR(config.grid.availability.availability(), 0.925, 1e-9);
}

TEST(ConfigIo, MixedGranularities) {
  std::istringstream in("[workload]\ngranularities = 1000, 25000, 125000\n");
  const sim::SimulationConfig config = sim::load_simulation_config(in);
  ASSERT_EQ(config.workload.types.size(), 3u);
  EXPECT_DOUBLE_EQ(config.workload.types[1].granularity, 25000.0);
}

TEST(ConfigIo, RejectsUnknownSection) {
  std::istringstream in("[grids]\nheterogeneity = Hom\n");
  EXPECT_THROW((void)sim::load_simulation_config(in), std::runtime_error);
}

TEST(ConfigIo, RejectsUnknownKey) {
  std::istringstream in("[grid]\nheterogenity = Hom\n");  // typo
  EXPECT_THROW((void)sim::load_simulation_config(in), std::runtime_error);
}

TEST(ConfigIo, RejectsUnknownPolicy) {
  std::istringstream in("[scheduler]\npolicy = FCFS-Banana\n");
  EXPECT_THROW((void)sim::load_simulation_config(in), std::runtime_error);
}

TEST(ConfigIo, RejectsConflictingRateSpecs) {
  std::istringstream in("[workload]\nutilization = 0.5\narrival_rate = 1e-4\n");
  EXPECT_THROW((void)sim::load_simulation_config(in), std::runtime_error);
}

TEST(ConfigIo, DefaultsMatchDefaultConstructedConfig) {
  std::istringstream in("");
  const sim::SimulationConfig loaded = sim::load_simulation_config(in);
  const sim::SimulationConfig defaults;
  EXPECT_EQ(loaded.policy, defaults.policy);
  EXPECT_EQ(loaded.individual, defaults.individual);
  EXPECT_EQ(loaded.seed, defaults.seed);
  EXPECT_EQ(loaded.grid.heterogeneity, defaults.grid.heterogeneity);
}

// Every key load_simulation_config reads, each set away from its default.
// Keys that exclude each other (granularity / granularities, utilization /
// arrival_rate, the two capacity spellings) are split across the two
// configs.
constexpr const char* kEveryKeyConfigs[] = {
    "[grid]\n"
    "heterogeneity = Het\n"
    "availability = 0.925\n"
    "total_power = 1200\n"
    "hom_power = 12\n"
    "het_power_lo = 3\n"
    "het_power_hi = 15\n"
    "outages = true\n"
    "outage_fraction = 0.3\n"
    "outage_interarrival = 40000\n"
    "outage_duration_lo = 100\n"
    "outage_duration_hi = 200\n"
    "checkpoint_server_capacity = 7\n"
    "[checkpoint_server]\n"
    "release_slots = false\n"
    "faults = true\n"
    "mtbf = 50000\n"
    "mttr = 900\n"
    "abort_transfers = false\n"
    "lose_data = true\n"
    "retry_max_attempts = 5\n"
    "retry_backoff_base = 20\n"
    "retry_backoff_cap = 400\n"
    "attempt_timeout = 1000\n"
    "[workload]\n"
    "granularity = 12000\n"
    "spread = 0.25\n"
    "bag_size = 1e6\n"
    "num_bots = 30\n"
    "utilization = 0.7\n"
    "arrivals = Bursty\n"
    "burst_intensity = 3\n"
    "burst_fraction = 0.15\n"
    "[scheduler]\n"
    "policy = LongIdle\n"
    "individual = WQR\n"
    "replication_threshold = 3\n"
    "dynamic_replication = true\n"
    "[robustness]\n"
    "adversary = true\n"
    "num_windows = 2\n"
    "window_duration = 1800\n"
    "lead_fraction = 0.3\n"
    "spacing = 30000\n"
    "burst_intensity = 2.5\n"
    "hit_machines = false\n"
    "outage_fraction = 0.3\n"
    "hit_server = false\n"
    "[run]\n"
    "seed = 4294967311\n"
    "warmup_bots = 3\n"
    "max_sim_time = 5e6\n"
    "monitor_interval = 600\n",
    // The other spellings; the server never faults but the adversary takes
    // it down, so the retry policy still matters.
    "[grid]\n"
    "availability = always\n"
    "[checkpoint_server]\n"
    "capacity = 3\n"
    "retry_max_attempts = 2\n"
    "retry_backoff_base = 10\n"
    "retry_backoff_cap = 80\n"
    "attempt_timeout = 0\n"
    "[workload]\n"
    "granularities = 1000, 25000.5\n"
    "arrival_rate = 2.5e-4\n"
    "[robustness]\n"
    "adversary = true\n"
    "hit_server = true\n",
};

void expect_same_config(const sim::SimulationConfig& a, const sim::SimulationConfig& b) {
  EXPECT_EQ(a.grid.heterogeneity, b.grid.heterogeneity);
  EXPECT_EQ(a.grid.availability.failures_enabled, b.grid.availability.failures_enabled);
  // Saved as the availability target, which the model reproduces to rounding.
  EXPECT_NEAR(a.grid.availability.availability(), b.grid.availability.availability(), 1e-12);
  EXPECT_EQ(a.grid.total_power, b.grid.total_power);
  EXPECT_EQ(a.grid.hom_power, b.grid.hom_power);
  EXPECT_EQ(a.grid.het_power_lo, b.grid.het_power_lo);
  EXPECT_EQ(a.grid.het_power_hi, b.grid.het_power_hi);
  EXPECT_EQ(a.grid.outages.enabled, b.grid.outages.enabled);
  if (a.grid.outages.enabled) {
    EXPECT_EQ(a.grid.outages.fraction, b.grid.outages.fraction);
    EXPECT_EQ(a.grid.outages.mean_interarrival, b.grid.outages.mean_interarrival);
    EXPECT_TRUE(a.grid.outages.duration == b.grid.outages.duration)
        << a.grid.outages.duration.describe() << " vs " << b.grid.outages.duration.describe();
  }
  EXPECT_EQ(a.grid.checkpoint_server_capacity, b.grid.checkpoint_server_capacity);
  EXPECT_EQ(a.grid.checkpoint_server_release_slots, b.grid.checkpoint_server_release_slots);
  const grid::CheckpointServerFaultModel& fa = a.grid.checkpoint_server_faults;
  const grid::CheckpointServerFaultModel& fb = b.grid.checkpoint_server_faults;
  EXPECT_EQ(fa.enabled, fb.enabled);
  if (fa.enabled) {
    EXPECT_EQ(fa.mtbf, fb.mtbf);
    EXPECT_EQ(fa.mttr, fb.mttr);
    EXPECT_EQ(fa.abort_transfers, fb.abort_transfers);
    EXPECT_EQ(fa.lose_data, fb.lose_data);
  }
  EXPECT_EQ(a.checkpoint_retry.max_attempts, b.checkpoint_retry.max_attempts);
  EXPECT_EQ(a.checkpoint_retry.backoff_base, b.checkpoint_retry.backoff_base);
  EXPECT_EQ(a.checkpoint_retry.backoff_cap, b.checkpoint_retry.backoff_cap);
  EXPECT_EQ(a.checkpoint_retry.attempt_timeout, b.checkpoint_retry.attempt_timeout);
  ASSERT_EQ(a.workload.types.size(), b.workload.types.size());
  for (std::size_t i = 0; i < a.workload.types.size(); ++i) {
    EXPECT_EQ(a.workload.types[i].granularity, b.workload.types[i].granularity);
    EXPECT_EQ(a.workload.types[i].spread, b.workload.types[i].spread);
  }
  EXPECT_EQ(a.workload.bag_size, b.workload.bag_size);
  EXPECT_EQ(a.workload.num_bots, b.workload.num_bots);
  EXPECT_EQ(a.workload.arrival_rate, b.workload.arrival_rate);
  EXPECT_EQ(a.workload.arrivals, b.workload.arrivals);
  if (a.workload.arrivals == workload::ArrivalProcess::kBursty) {
    EXPECT_EQ(a.workload.burst_intensity, b.workload.burst_intensity);
    EXPECT_EQ(a.workload.burst_fraction, b.workload.burst_fraction);
  }
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.individual, b.individual);
  EXPECT_EQ(a.replication_threshold, b.replication_threshold);
  EXPECT_EQ(a.dynamic_replication, b.dynamic_replication);
  EXPECT_EQ(a.adversary.enabled, b.adversary.enabled);
  if (a.adversary.enabled) {
    EXPECT_EQ(a.adversary.num_windows, b.adversary.num_windows);
    EXPECT_EQ(a.adversary.window_duration, b.adversary.window_duration);
    EXPECT_EQ(a.adversary.lead_fraction, b.adversary.lead_fraction);
    EXPECT_EQ(a.adversary.spacing, b.adversary.spacing);
    EXPECT_EQ(a.adversary.burst_intensity, b.adversary.burst_intensity);
    EXPECT_EQ(a.adversary.hit_machines, b.adversary.hit_machines);
    EXPECT_EQ(a.adversary.outage_fraction, b.adversary.outage_fraction);
    EXPECT_EQ(a.adversary.hit_server, b.adversary.hit_server);
  }
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.warmup_bots, b.warmup_bots);
  EXPECT_EQ(a.max_sim_time, b.max_sim_time);
  EXPECT_EQ(a.monitor_interval, b.monitor_interval);
}

TEST(ConfigIo, SaveLoadRoundTrip) {
  for (const char* text : kEveryKeyConfigs) {
    SCOPED_TRACE(text);
    std::istringstream in(text);
    const sim::SimulationConfig original = sim::load_simulation_config(in);
    std::stringstream buffer;
    sim::save_simulation_config(buffer, original);
    const sim::SimulationConfig loaded = sim::load_simulation_config(buffer);
    expect_same_config(loaded, original);
  }
  // The first config's values really differ from the defaults, so the
  // comparison above is not vacuous for the fields it covers.
  std::istringstream in(kEveryKeyConfigs[0]);
  const sim::SimulationConfig every = sim::load_simulation_config(in);
  const sim::SimulationConfig defaults;
  EXPECT_NE(every.grid.outages.duration.mean(), defaults.grid.outages.duration.mean());
  EXPECT_NE(every.seed, defaults.seed);
  EXPECT_NE(every.checkpoint_retry.max_attempts, defaults.checkpoint_retry.max_attempts);
}

TEST(ConfigIo, LoadedConfigActuallyRuns) {
  std::istringstream in(
      "[grid]\navailability = always\n"
      "[workload]\ngranularity = 25000\nnum_bots = 5\nutilization = 0.5\n"
      "[scheduler]\npolicy = PF-RR\n");
  sim::SimulationConfig config = sim::load_simulation_config(in);
  const sim::SimulationResult result = sim::Simulation(config).run();
  EXPECT_EQ(result.bots_completed, 5u);
}

// --- [checkpoint_server]: faults, retry policy, slot release ---

TEST(ConfigIo, LoadsCheckpointServerSection) {
  std::istringstream in(
      "[checkpoint_server]\n"
      "capacity = 4\n"
      "release_slots = false\n"
      "faults = true\n"
      "mtbf = 40000\n"
      "mttr = 2000\n"
      "abort_transfers = true\n"
      "lose_data = true\n"
      "retry_max_attempts = 6\n"
      "retry_backoff_base = 15\n"
      "retry_backoff_cap = 240\n"
      "attempt_timeout = 900\n");
  const sim::SimulationConfig config = sim::load_simulation_config(in);
  EXPECT_EQ(config.grid.checkpoint_server_capacity, 4u);
  EXPECT_FALSE(config.grid.checkpoint_server_release_slots);
  const grid::CheckpointServerFaultModel& faults = config.grid.checkpoint_server_faults;
  EXPECT_TRUE(faults.enabled);
  EXPECT_DOUBLE_EQ(faults.mtbf, 40000.0);
  EXPECT_DOUBLE_EQ(faults.mttr, 2000.0);
  EXPECT_TRUE(faults.lose_data);
  EXPECT_EQ(config.checkpoint_retry.max_attempts, 6);
  EXPECT_DOUBLE_EQ(config.checkpoint_retry.backoff_base, 15.0);
  EXPECT_DOUBLE_EQ(config.checkpoint_retry.backoff_cap, 240.0);
  EXPECT_DOUBLE_EQ(config.checkpoint_retry.attempt_timeout, 900.0);
}

TEST(ConfigIo, CheckpointServerRoundTrip) {
  std::istringstream in(
      "[checkpoint_server]\n"
      "release_slots = false\n"
      "faults = true\n"
      "mtbf = 40000\n"
      "mttr = 2000\n"
      "lose_data = true\n"
      "retry_max_attempts = 6\n"
      "retry_backoff_base = 15\n"
      "retry_backoff_cap = 240\n"
      "attempt_timeout = 900\n");
  const sim::SimulationConfig original = sim::load_simulation_config(in);
  std::stringstream buffer;
  sim::save_simulation_config(buffer, original);
  const sim::SimulationConfig loaded = sim::load_simulation_config(buffer);
  EXPECT_EQ(loaded.grid.checkpoint_server_release_slots,
            original.grid.checkpoint_server_release_slots);
  EXPECT_EQ(loaded.grid.checkpoint_server_faults.enabled, true);
  EXPECT_DOUBLE_EQ(loaded.grid.checkpoint_server_faults.mtbf, 40000.0);
  EXPECT_DOUBLE_EQ(loaded.grid.checkpoint_server_faults.mttr, 2000.0);
  EXPECT_EQ(loaded.grid.checkpoint_server_faults.lose_data, true);
  EXPECT_EQ(loaded.checkpoint_retry.max_attempts, 6);
  EXPECT_DOUBLE_EQ(loaded.checkpoint_retry.backoff_base, 15.0);
  EXPECT_DOUBLE_EQ(loaded.checkpoint_retry.backoff_cap, 240.0);
  EXPECT_DOUBLE_EQ(loaded.checkpoint_retry.attempt_timeout, 900.0);
}

TEST(ConfigIo, RejectsCapacityInBothSections) {
  std::istringstream in(
      "[grid]\ncheckpoint_server_capacity = 2\n"
      "[checkpoint_server]\ncapacity = 4\n");
  EXPECT_THROW((void)sim::load_simulation_config(in), std::runtime_error);
}

TEST(ConfigIo, RejectsNonPositiveServerFaultMeans) {
  {
    std::istringstream in("[checkpoint_server]\nmtbf = 0\n");
    EXPECT_THROW((void)sim::load_simulation_config(in), std::runtime_error);
  }
  {
    std::istringstream in("[checkpoint_server]\nmttr = -5\n");
    EXPECT_THROW((void)sim::load_simulation_config(in), std::runtime_error);
  }
}

TEST(ConfigIo, RejectsBadRetryPolicy) {
  {
    std::istringstream in("[checkpoint_server]\nretry_max_attempts = 0\n");
    EXPECT_THROW((void)sim::load_simulation_config(in), std::runtime_error);
  }
  {
    std::istringstream in("[checkpoint_server]\nretry_backoff_base = 0\n");
    EXPECT_THROW((void)sim::load_simulation_config(in), std::runtime_error);
  }
  {
    // cap below base (base defaults to 30)
    std::istringstream in("[checkpoint_server]\nretry_backoff_cap = 5\n");
    EXPECT_THROW((void)sim::load_simulation_config(in), std::runtime_error);
  }
  {
    std::istringstream in("[checkpoint_server]\nattempt_timeout = -1\n");
    EXPECT_THROW((void)sim::load_simulation_config(in), std::runtime_error);
  }
}

TEST(ConfigIo, RejectsBadOutageParameters) {
  {
    std::istringstream in("[grid]\noutage_fraction = 0\n");
    EXPECT_THROW((void)sim::load_simulation_config(in), std::runtime_error);
  }
  {
    std::istringstream in("[grid]\noutage_fraction = 1.5\n");
    EXPECT_THROW((void)sim::load_simulation_config(in), std::runtime_error);
  }
  {
    std::istringstream in("[grid]\noutage_interarrival = -100\n");
    EXPECT_THROW((void)sim::load_simulation_config(in), std::runtime_error);
  }
  {
    std::istringstream in("[grid]\noutage_duration_lo = 500\noutage_duration_hi = 100\n");
    EXPECT_THROW((void)sim::load_simulation_config(in), std::runtime_error);
  }
  {
    // durations must come as a pair
    std::istringstream in("[grid]\noutage_duration_lo = 500\n");
    EXPECT_THROW((void)sim::load_simulation_config(in), std::runtime_error);
  }
}

// --- [robustness]: adversarial scenario director ---

TEST(ConfigIo, LoadsRobustnessSection) {
  std::istringstream in(
      "[robustness]\n"
      "adversary = true\n"
      "num_windows = 4\n"
      "window_duration = 3600\n"
      "lead_fraction = 0.1\n"
      "spacing = 40000\n"
      "burst_intensity = 6\n"
      "hit_machines = true\n"
      "outage_fraction = 0.5\n"
      "hit_server = false\n");
  const sim::SimulationConfig config = sim::load_simulation_config(in);
  const sim::AdversarialScenario& adversary = config.adversary;
  EXPECT_TRUE(adversary.enabled);
  EXPECT_EQ(adversary.num_windows, 4u);
  EXPECT_DOUBLE_EQ(adversary.window_duration, 3600.0);
  EXPECT_DOUBLE_EQ(adversary.lead_fraction, 0.1);
  EXPECT_DOUBLE_EQ(adversary.spacing, 40000.0);
  EXPECT_DOUBLE_EQ(adversary.burst_intensity, 6.0);
  EXPECT_TRUE(adversary.hit_machines);
  EXPECT_DOUBLE_EQ(adversary.outage_fraction, 0.5);
  EXPECT_FALSE(adversary.hit_server);
}

TEST(ConfigIo, RobustnessRoundTrip) {
  std::istringstream in(
      "[robustness]\n"
      "adversary = true\n"
      "num_windows = 2\n"
      "window_duration = 5400\n"
      "burst_intensity = 3.5\n"
      "outage_fraction = 0.4\n");
  const sim::SimulationConfig original = sim::load_simulation_config(in);
  std::stringstream buffer;
  sim::save_simulation_config(buffer, original);
  const sim::SimulationConfig loaded = sim::load_simulation_config(buffer);
  EXPECT_EQ(loaded.adversary.enabled, true);
  EXPECT_EQ(loaded.adversary.num_windows, 2u);
  EXPECT_DOUBLE_EQ(loaded.adversary.window_duration, 5400.0);
  EXPECT_DOUBLE_EQ(loaded.adversary.lead_fraction, original.adversary.lead_fraction);
  EXPECT_DOUBLE_EQ(loaded.adversary.burst_intensity, 3.5);
  EXPECT_EQ(loaded.adversary.hit_machines, original.adversary.hit_machines);
  EXPECT_DOUBLE_EQ(loaded.adversary.outage_fraction, 0.4);
  EXPECT_EQ(loaded.adversary.hit_server, original.adversary.hit_server);
}

TEST(ConfigIo, DisabledAdversaryIsNotSaved) {
  const sim::SimulationConfig defaults;
  std::stringstream buffer;
  sim::save_simulation_config(buffer, defaults);
  EXPECT_EQ(buffer.str().find("[robustness]"), std::string::npos);
}

TEST(ConfigIo, RejectsBadRobustnessParameters) {
  const char* bad[] = {
      "[robustness]\nnum_windows = 0\n",
      "[robustness]\nwindow_duration = 0\n",
      "[robustness]\nlead_fraction = 1\n",
      "[robustness]\nlead_fraction = -0.1\n",
      "[robustness]\nspacing = -1\n",
      "[robustness]\nburst_intensity = 0.5\n",
      "[robustness]\noutage_fraction = 0\n",
      "[robustness]\noutage_fraction = 1.5\n",
      "[robustness]\nsurprise = 1\n",  // unknown key
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    std::istringstream in(text);
    EXPECT_THROW((void)sim::load_simulation_config(in), std::runtime_error);
  }
}

TEST(ConfigIo, RobustnessErrorsNameTheValue) {
  std::istringstream in("[robustness]\nburst_intensity = 0.25\n");
  try {
    (void)sim::load_simulation_config(in);
    FAIL() << "expected config error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("burst_intensity"), std::string::npos);
    EXPECT_NE(what.find("0.25"), std::string::npos);
  }
}

// --- malformed and out-of-range numbers ---

TEST(ConfigIo, RejectsBadNumbersNamingTheKey) {
  struct Case {
    const char* text;
    const char* key;
  };
  const Case cases[] = {
      // Non-finite, trailing junk, a sign on a count: refused, not read in part.
      {"[grid]\ntotal_power = inf\n", "total_power"},
      {"[grid]\navailability = 0.5abc\n", "availability"},
      {"[grid]\navailability = 1e999\n", "availability"},
      {"[workload]\ngranularities = 1000x\n", "granularities"},
      {"[workload]\ngranularities = 1000, abc\n", "granularities"},
      {"[workload]\nnum_bots = -1\n", "num_bots"},
      {"[grid]\ncheckpoint_server_capacity = -1\n", "checkpoint_server_capacity"},
      {"[run]\nwarmup_bots = -1\n", "warmup_bots"},
      // Parsable but out of range.
      {"[grid]\nhom_power = 0\n", "hom_power"},
      {"[grid]\nheterogeneity = Het\nhet_power_lo = 0\n", "het_power_lo"},
      {"[grid]\nhet_power_lo = 20\nhet_power_hi = 10\n", "het_power_lo"},
      {"[grid]\ntotal_power = 1e300\n", "total_power"},
      {"[workload]\ngranularity = -5\n", "granularity"},
      {"[workload]\ngranularities = 1000, 0\n", "granularities"},
      {"[workload]\nspread = 7\n", "spread"},
      {"[workload]\nspread = -0.1\n", "spread"},
      {"[workload]\nbag_size = 0\n", "bag_size"},
      {"[workload]\nutilization = 0\n", "utilization"},
      {"[workload]\nnum_bots = 0\n", "num_bots"},
      {"[workload]\nnum_bots = 5\n[run]\nwarmup_bots = 5\n", "warmup_bots"},
      {"[workload]\narrivals = Bursty\nburst_fraction = 1.5\n", "burst_fraction"},
      {"[workload]\narrivals = Bursty\nburst_intensity = 1\n", "burst_intensity"},
      {"[scheduler]\nreplication_threshold = 3000000000\n", "replication_threshold"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.text);
    std::istringstream in(c.text);
    try {
      (void)sim::load_simulation_config(in);
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(c.key), std::string::npos) << error.what();
    } catch (const std::exception& error) {
      ADD_FAILURE() << "threw a non-runtime_error: " << error.what();
    }
  }
}

TEST(ConfigIo, ServerCapacitySizesNoAllocation) {
  // A capacity bounds the transfer slots; it is not reserved up front, so
  // one far beyond any run's transfers behaves like unlimited capacity.
  const auto run = [](const char* capacity) {
    std::istringstream in(std::string("[grid]\navailability = low\n"
                                      "checkpoint_server_capacity = ") +
                          capacity + "\n[workload]\ngranularity = 25000\nnum_bots = 6\n");
    return sim::Simulation(sim::load_simulation_config(in)).run();
  };
  const sim::SimulationResult unlimited = run("0");
  const sim::SimulationResult huge = run("1000000000000");
  EXPECT_GT(huge.checkpoint_retrievals + huge.checkpoints_saved, 0u);
  EXPECT_EQ(huge.turnaround.mean(), unlimited.turnaround.mean());
  EXPECT_EQ(huge.events_executed, unlimited.events_executed);
}

// --- enum parsers ---

TEST(EnumParsers, PolicyRoundTrip) {
  for (sched::PolicyKind kind :
       {sched::PolicyKind::kFcfsExcl, sched::PolicyKind::kFcfsShare,
        sched::PolicyKind::kRoundRobin, sched::PolicyKind::kRoundRobinNrf,
        sched::PolicyKind::kLongIdle, sched::PolicyKind::kRandom,
        sched::PolicyKind::kShortestBagFirst, sched::PolicyKind::kPendingFirst}) {
    EXPECT_EQ(sched::parse_policy_kind(sched::to_string(kind)).value(), kind);
  }
  EXPECT_FALSE(sched::parse_policy_kind("nope").has_value());
  EXPECT_EQ(sched::parse_policy_kind("fcfs-share").value(), sched::PolicyKind::kFcfsShare);
}

TEST(EnumParsers, IndividualRoundTrip) {
  for (sched::IndividualSchedulerKind kind :
       {sched::IndividualSchedulerKind::kWorkQueue, sched::IndividualSchedulerKind::kWqr,
        sched::IndividualSchedulerKind::kWqrFt,
        sched::IndividualSchedulerKind::kKnowledgeBased}) {
    EXPECT_EQ(sched::parse_individual_kind(sched::to_string(kind)).value(), kind);
  }
  EXPECT_FALSE(sched::parse_individual_kind("?").has_value());
}

TEST(EnumParsers, AvailabilityAndIntensity) {
  EXPECT_EQ(grid::parse_availability_level("HighAvail").value(), grid::AvailabilityLevel::kHigh);
  EXPECT_EQ(grid::parse_availability_level("low").value(), grid::AvailabilityLevel::kLow);
  EXPECT_EQ(grid::parse_availability_level("always").value(), grid::AvailabilityLevel::kAlways);
  EXPECT_FALSE(grid::parse_availability_level("sometimes").has_value());
  EXPECT_EQ(workload::parse_intensity("med").value(), workload::Intensity::kMed);
  EXPECT_EQ(workload::parse_arrival_process("bursty").value(),
            workload::ArrivalProcess::kBursty);
  EXPECT_FALSE(workload::parse_arrival_process("tidal").has_value());
}

}  // namespace
}  // namespace dg
