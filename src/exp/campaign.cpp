#include "exp/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

namespace dg::exp {

namespace {

std::string format_axis(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", value);
  return buffer;
}

}  // namespace

CampaignAxes CampaignAxes::smoke() {
  CampaignAxes axes;
  axes.machine_availabilities = {0.98, 0.50};
  axes.server_availabilities = {1.0, 0.70};
  axes.utilizations = {0.9};
  axes.replication_thresholds = {2};
  axes.policies = {sched::PolicyKind::kFcfsShare, sched::PolicyKind::kRoundRobin};
  return axes;
}

std::vector<CampaignCell> expand_campaign(const CampaignAxes& axes) {
  if (axes.policies.empty() || axes.machine_availabilities.empty() ||
      axes.server_availabilities.empty() || axes.utilizations.empty() ||
      axes.replication_thresholds.empty()) {
    throw std::invalid_argument("campaign: every axis needs at least one value");
  }
  for (double a : axes.machine_availabilities) {
    if (!(a > 0.0) || !(a < 1.0)) {
      throw std::invalid_argument("campaign: machine availabilities must be in (0, 1)");
    }
  }
  for (double s : axes.server_availabilities) {
    if (!(s > 0.0) || !(s <= 1.0)) {
      throw std::invalid_argument("campaign: server availabilities must be in (0, 1]");
    }
  }
  for (double u : axes.utilizations) {
    if (!(u > 0.0)) throw std::invalid_argument("campaign: utilizations must be positive");
  }
  for (int r : axes.replication_thresholds) {
    if (r < 1) throw std::invalid_argument("campaign: replication thresholds must be >= 1");
  }
  if (!(axes.server_mttr > 0.0) || !(axes.granularity > 0.0) || !(axes.bag_size > 0.0) ||
      axes.num_bots == 0) {
    throw std::invalid_argument(
        "campaign: server_mttr, granularity, bag_size must be positive and num_bots >= 1");
  }

  std::vector<CampaignCell> cells;
  cells.reserve(axes.policies.size() * axes.machine_availabilities.size() *
                axes.server_availabilities.size() * axes.utilizations.size() *
                axes.replication_thresholds.size());
  for (sched::PolicyKind policy : axes.policies) {
    for (double availability : axes.machine_availabilities) {
      for (double server : axes.server_availabilities) {
        for (double utilization : axes.utilizations) {
          for (int threshold : axes.replication_thresholds) {
            CampaignCell cell;
            cell.policy = policy;
            cell.machine_availability = availability;
            cell.server_availability = server;
            cell.utilization = utilization;
            cell.replication_threshold = threshold;
            cell.label = sched::to_string(policy) + " a=" + format_axis(availability) +
                         " s=" + format_axis(server) + " U=" + format_axis(utilization) +
                         " r=" + std::to_string(threshold);

            grid::GridConfig grid_config;
            grid_config.heterogeneity = axes.heterogeneity;
            grid_config.availability = grid::AvailabilityModel::from_availability(availability);
            if (server < 1.0) {
              grid_config.checkpoint_server_faults.enabled = true;
              grid_config.checkpoint_server_faults.mttr = axes.server_mttr;
              // MTBF solving MTBF / (MTBF + MTTR) = a.
              grid_config.checkpoint_server_faults.mtbf =
                  server / (1.0 - server) * axes.server_mttr;
            }

            sim::SimulationConfig config;
            config.grid = grid_config;
            config.workload.types = {workload::BotType{axes.granularity, 0.5}};
            config.workload.bag_size = axes.bag_size;
            config.workload.num_bots = axes.num_bots;
            config.workload.arrival_rate = workload::arrival_rate_for_utilization(
                utilization, axes.bag_size, workload::effective_grid_power(grid_config));
            config.policy = policy;
            config.replication_threshold = threshold;
            config.warmup_bots = axes.warmup_bots;
            config.adversary = axes.adversary;
            cell.config = std::move(config);
            cells.push_back(std::move(cell));
          }
        }
      }
    }
  }
  return cells;
}

std::vector<RiskCliffRow> risk_cliff_rows(const std::vector<CampaignCell>& cells,
                                          const std::vector<CellResult>& results) {
  if (cells.size() != results.size()) {
    throw std::invalid_argument("risk_cliff_rows: cells/results size mismatch");
  }
  std::vector<RiskCliffRow> rows;
  rows.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CampaignCell& cell = cells[i];
    const CellResult& result = results[i];
    RiskCliffRow row;
    row.label = cell.label;
    row.policy = sched::to_string(cell.policy);
    row.machine_availability = cell.machine_availability;
    row.server_availability = cell.server_availability;
    row.utilization = cell.utilization;
    row.replication_threshold = cell.replication_threshold;
    row.mean_turnaround = result.turnaround.stats().mean();
    row.p50 = result.turnaround_tail.quantile(0.50);
    row.p95 = result.turnaround_tail.quantile(0.95);
    row.p99 = result.turnaround_tail.quantile(0.99);
    row.wasted_fraction = result.wasted_fraction.mean();
    row.replications = result.replications;
    row.saturated = result.saturated();
    rows.push_back(std::move(row));
  }

  // Baseline of a (policy, utilization, threshold) slice: the cell at the
  // lexicographically largest (machine availability, server availability) —
  // the mildest corner of the sweep. Each row's degradation is its p95 over
  // that baseline p95.
  for (RiskCliffRow& row : rows) {
    const RiskCliffRow* baseline = nullptr;
    for (const RiskCliffRow& candidate : rows) {
      if (candidate.policy != row.policy || candidate.utilization != row.utilization ||
          candidate.replication_threshold != row.replication_threshold) {
        continue;
      }
      if (baseline == nullptr ||
          candidate.machine_availability > baseline->machine_availability ||
          (candidate.machine_availability == baseline->machine_availability &&
           candidate.server_availability > baseline->server_availability)) {
        baseline = &candidate;
      }
    }
    row.degradation_vs_baseline =
        (baseline != nullptr && baseline->p95 > 0.0) ? row.p95 / baseline->p95 : 1.0;
  }
  return rows;
}

SeedSpreadReport seed_sensitivity(const sim::SimulationConfig& config, const RunOptions& options,
                                  std::size_t num_seeds) {
  if (num_seeds < 2) {
    throw std::invalid_argument("seed_sensitivity: need at least 2 seeds for a spread");
  }
  // One cell whose replications are the seeds: replication i runs seed
  // mix_seed(base_seed, i), and the runner folds them in seed order.
  RunOptions seed_options = options;
  seed_options.min_replications = num_seeds;
  seed_options.max_replications = num_seeds;
  const std::vector<CellResult> results =
      ExperimentRunner(seed_options).run({NamedConfig{"seed sensitivity", config}});
  const CellResult& cell = results.front();
  SeedSpreadReport report;
  report.seeds = num_seeds;
  report.p95 = cell.replication_p95;
  report.mean_turnaround = cell.turnaround.samples();
  report.saturated_seeds = cell.saturated_replications;

  std::vector<double> sorted = report.p95;
  std::sort(sorted.begin(), sorted.end());
  report.p95_min = sorted.front();
  report.p95_max = sorted.back();
  report.p95_median = num_seeds % 2 == 1
                          ? sorted[num_seeds / 2]
                          : 0.5 * (sorted[num_seeds / 2 - 1] + sorted[num_seeds / 2]);
  stats::OnlineStats spread;
  for (double value : report.p95) spread.add(value);
  report.p95_mean = spread.mean();
  report.p95_stddev = spread.stddev();
  report.p95_cv = report.p95_mean != 0.0 ? report.p95_stddev / report.p95_mean : 0.0;
  if (report.p95_min > 0.0) {
    report.p95_max_over_min = report.p95_max / report.p95_min;
  } else {
    report.p95_max_over_min =
        report.p95_max > 0.0 ? std::numeric_limits<double>::infinity() : 1.0;
  }
  return report;
}

CampaignOptions CampaignOptions::from_env(CampaignOptions defaults) {
  if (auto v = env_size("DGSCHED_CAMPAIGN_SEEDS")) {
    if (*v < 2) {
      bad_env("DGSCHED_CAMPAIGN_SEEDS", std::to_string(*v), "an integer >= 2");
    }
    defaults.seeds = *v;
  }
  if (auto text = env_string("DGSCHED_CAMPAIGN_GRID")) {
    if (*text == "smoke") {
      defaults.smoke = true;
    } else if (*text == "full") {
      defaults.smoke = false;
    } else {
      bad_env("DGSCHED_CAMPAIGN_GRID", *text, "\"full\" or \"smoke\"");
    }
  }
  if (auto text = env_string("DGSCHED_ADVERSARY")) {
    if (*text != "0" && *text != "1") bad_env("DGSCHED_ADVERSARY", *text, "0 or 1");
    defaults.adversary = *text == "1";
  }
  return defaults;
}

}  // namespace dg::exp
