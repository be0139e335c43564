// Robustness campaign: risk-cliff sweeps and seed-sensitivity analysis.
//
// The paper evaluates policies on fixed (grid, intensity) panels; the
// robustness campaign instead asks where each policy's tail *collapses*: it
// sweeps (machine availability x checkpoint-server availability x
// utilization x replication threshold) per policy — optionally under the
// adversarial scenario director (sim/adversary.hpp) — and reports
// heatmap-ready rows of mean / p50 / p95 / p99 turnaround plus the
// degradation of each cell's p95 relative to the mildest corner of its
// (policy, utilization, threshold) slice. A second mode re-runs one cell
// under many base seeds and reports the inter-seed spread of the p95 — how
// much of an observed "cliff" is stochastic luck.
//
// Everything here is deterministic: cell expansion order is fixed, and both
// the sweep and the seed-sensitivity pass run on exp::ExperimentRunner
// (ordered per-cell commits) — results are bit-identical across
// DGSCHED_THREADS / DGSCHED_PROCS / world-cache on-off.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "sched/policy.hpp"
#include "sim/simulation.hpp"

namespace dg::exp {

/// The campaign's sweep axes. Defaults give the full grid (3 x 3 x 2 x 2
/// per policy = 36 cells/policy); smoke() is the CI-sized reduction.
struct CampaignAxes {
  /// Machine availability axis (AvailabilityModel::from_availability).
  std::vector<double> machine_availabilities{0.98, 0.75, 0.50};
  /// Checkpoint-server availability axis; 1.0 = the paper's reliable server
  /// (faults disabled), otherwise MTBF = a / (1 - a) * server_mttr.
  std::vector<double> server_availabilities{1.0, 0.95, 0.70};
  /// Server mean repair time, seconds (fixed; the axis varies MTBF).
  double server_mttr = 3600.0;
  /// Offered-load axis (arrival rate from utilization via the paper's Eq. 1).
  std::vector<double> utilizations{0.5, 0.9};
  /// WQR replication-threshold axis.
  std::vector<int> replication_thresholds{2, 3};
  /// Policies swept (each gets the full grid).
  std::vector<sched::PolicyKind> policies{
      sched::PolicyKind::kFcfsShare, sched::PolicyKind::kRoundRobin,
      sched::PolicyKind::kLongIdle, sched::PolicyKind::kRandom};
  grid::Heterogeneity heterogeneity = grid::Heterogeneity::kHet;
  double granularity = 5000.0;
  double bag_size = 2.5e6;
  std::size_t num_bots = 24;
  std::size_t warmup_bots = 2;
  /// Adversarial director applied to every cell (disabled scenario = plain
  /// stochastic stress only).
  sim::AdversarialScenario adversary{};

  /// CI-sized grid: the two extreme corners of each axis, two policies.
  [[nodiscard]] static CampaignAxes smoke();
};

/// One expanded cell of the campaign grid.
struct CampaignCell {
  std::string label;
  sched::PolicyKind policy = sched::PolicyKind::kFcfsShare;
  double machine_availability = 1.0;
  double server_availability = 1.0;
  double utilization = 0.5;
  int replication_threshold = 2;
  sim::SimulationConfig config;
};

/// Expands the axes into cells in a fixed order: policy-major, then machine
/// availability, server availability, utilization, threshold — each in the
/// axes' listed order. Throws std::invalid_argument on empty or
/// out-of-range axes.
[[nodiscard]] std::vector<CampaignCell> expand_campaign(const CampaignAxes& axes);

/// One heatmap row: the cell's axes plus its folded tail metrics and the
/// p95 degradation versus the baseline corner of its slice.
struct RiskCliffRow {
  std::string label;
  std::string policy;
  double machine_availability = 1.0;
  double server_availability = 1.0;
  double utilization = 0.5;
  int replication_threshold = 2;
  double mean_turnaround = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double wasted_fraction = 0.0;
  /// p95 / (p95 of the baseline cell) — the baseline is the same (policy,
  /// utilization, threshold) at the highest machine availability and highest
  /// server availability in the grid. 1.0 for the baseline itself.
  double degradation_vs_baseline = 1.0;
  std::size_t replications = 0;
  bool saturated = false;
};

/// Joins expanded cells with their ExperimentRunner results (same order/
/// length) into heatmap rows, computing each row's degradation against its
/// slice baseline. Deterministic: row order equals cell order.
[[nodiscard]] std::vector<RiskCliffRow> risk_cliff_rows(const std::vector<CampaignCell>& cells,
                                                        const std::vector<CellResult>& results);

/// Inter-seed dispersion of one cell: the same configuration run once per
/// base seed (seed i = mix_seed(base_seed, i)).
struct SeedSpreadReport {
  std::size_t seeds = 0;
  /// Per-seed p95 turnaround / mean turnaround, in seed-index order.
  std::vector<double> p95;
  std::vector<double> mean_turnaround;
  std::size_t saturated_seeds = 0;
  // Spread statistics over the per-seed p95 values.
  double p95_min = 0.0;
  double p95_median = 0.0;
  double p95_max = 0.0;
  double p95_mean = 0.0;
  double p95_stddev = 0.0;
  /// Coefficient of variation: stddev / mean (0 when the mean is 0).
  double p95_cv = 0.0;
  /// max / min (infinity when the min is 0 and the max is not).
  double p95_max_over_min = 1.0;
};

/// Runs `config` once per seed (num_seeds >= 2, else std::invalid_argument)
/// as one ExperimentRunner cell of exactly num_seeds replications on
/// options.threads thread lanes, folded in ascending seed index —
/// bit-identical for any thread count. options.base_seed anchors the seed
/// sequence. The runner's world cache (options.world_cache_bytes) replaces
/// the cell's own world_cache; results are bit-identical either way. A
/// replication that throws stops the pass and its exception is rethrown.
[[nodiscard]] SeedSpreadReport seed_sensitivity(const sim::SimulationConfig& config,
                                                const RunOptions& options, std::size_t num_seeds);

/// Campaign-level knobs, env-overridable with the DGSCHED_* convention.
struct CampaignOptions {
  /// Seeds for the seed-sensitivity pass (DGSCHED_CAMPAIGN_SEEDS, >= 2).
  std::size_t seeds = 12;
  /// Reduced grid for CI (DGSCHED_CAMPAIGN_GRID=smoke|full).
  bool smoke = false;
  /// Adversarial director on/off for every cell (DGSCHED_ADVERSARY=0|1).
  bool adversary = true;

  [[nodiscard]] static CampaignOptions from_env(CampaignOptions defaults);
  [[nodiscard]] static CampaignOptions from_env() { return from_env(CampaignOptions{}); }
};

}  // namespace dg::exp
