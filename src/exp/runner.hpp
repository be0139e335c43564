// Experiment runner: scenario matrices with parallel replications.
//
// Each cell (one simulation configuration) is replicated with independent
// seeds until its 95% CI on mean turnaround reaches the target relative error
// (the paper's 2.5%) or the replication cap. Replications of all cells run
// concurrently on lanes of one kind: threads in this process, or forked
// worker processes (ShardOptions::procs). Every simulation is fully
// independent, and summaries fold through the PipelineState ordered commit
// (pipeline.hpp), so results are bit-identical for any lane kind, lane
// count or completion order.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "grid/world_cache.hpp"
#include "sim/simulation.hpp"
#include "stats/confidence.hpp"

namespace dg::exp {

struct RunOptions {
  std::size_t min_replications = 3;
  std::size_t max_replications = 12;
  double ci_level = 0.95;
  /// Paper target: 0.025. Benches default looser for wall-clock reasons; set
  /// DGSCHED_TRE=0.025 to match the paper.
  double target_relative_error = 0.05;
  std::uint64_t base_seed = 0x5eedULL;
  /// Thread lanes; 0 = max(1, hardware concurrency).
  std::size_t threads = 0;
  /// Budget (bytes) of the shared world-realization cache: each replication
  /// seed's machine availability timelines are synthesized once and replayed
  /// in every policy cell sharing that seed (bit-identical; see
  /// grid/world_cache.hpp). 0 (the default) disables the cache — every
  /// replication samples its processes live, which measured no slower and
  /// holds no worlds in memory. Thread lanes only: with
  /// ShardOptions::procs > 0, ExperimentRunner::run throws
  /// std::invalid_argument before any worker forks.
  std::size_t world_cache_bytes = 0;
  /// Replications launched beyond each cell's justified precision frontier
  /// (0 disables). Common-random-numbers seeding makes replication (cell, k)
  /// deterministic regardless of execution shape, so summaries for cells
  /// that prove precise first are simply discarded — speculation trades
  /// wasted work for never idling at a precision check.
  std::size_t speculate = 1;

  /// Reads DGSCHED_{MIN_REPS,MAX_REPS,TRE,THREADS,SEED,WORLD_CACHE,SPECULATE}
  /// overrides. Integers must be plain decimal digits and the TRE a finite
  /// number; malformed values raise std::invalid_argument naming the
  /// offending variable.
  [[nodiscard]] static RunOptions from_env(RunOptions defaults);
  [[nodiscard]] static RunOptions from_env() { return from_env(RunOptions{}); }
};

/// Env override for workload sizes used by the figure benches (DGSCHED_BOTS);
/// 0 is rejected like a malformed value, since a run needs at least one bag.
[[nodiscard]] std::optional<std::size_t> env_num_bots();

// Environment-knob helpers shared by the figure and campaign drivers: read a
// DGSCHED_* variable, returning nullopt when unset/empty. Malformed values
// raise std::invalid_argument naming the variable and the offending text —
// the same convention RunOptions::from_env follows.
[[nodiscard]] std::optional<std::string> env_string(const char* name);
[[nodiscard]] std::optional<double> env_double(const char* name);
[[nodiscard]] std::optional<std::size_t> env_size(const char* name);
/// Throws the convention's std::invalid_argument for `name` set to `text`.
[[noreturn]] void bad_env(const char* name, const std::string& text, const char* expected);

struct NamedConfig {
  std::string label;
  sim::SimulationConfig config;  // seed is overwritten per replication
};

/// Wall-clock accounting for one execution lane (a thread, or a worker
/// process). busy_s is time spent executing replications; stall_s is
/// time spent waiting for launchable work (the straggler penalty). A worker
/// process self-reports busy_s, and its stall_s is derived as wall - busy (it
/// includes protocol overhead, not just idleness).
struct WorkerLaneStats {
  double busy_s = 0.0;
  double stall_s = 0.0;
  std::uint64_t jobs = 0;
};

/// Execution-shape observability for one run(): how the campaign actually
/// executed (lane utilization, speculation economics), as opposed to what it
/// computed. Filled on either lane kind; threaded into perf_json and the
/// robustness-campaign banner.
struct ExecutionStats {
  std::vector<WorkerLaneStats> lanes;
  double wall_s = 0.0;
  std::uint64_t launched = 0;   ///< replications handed to the ready queue
  std::uint64_t committed = 0;  ///< summaries folded into cell accumulators
  std::uint64_t discarded = 0;  ///< speculative summaries dropped unfolded
  std::uint64_t recovered = 0;  ///< replications replayed from the journal

  [[nodiscard]] double busy_s() const noexcept {
    double total = 0.0;
    for (const WorkerLaneStats& lane : lanes) total += lane.busy_s;
    return total;
  }
  [[nodiscard]] double stall_s() const noexcept {
    double total = 0.0;
    for (const WorkerLaneStats& lane : lanes) total += lane.stall_s;
    return total;
  }
};

struct CellResult {
  std::string label;
  sim::SimulationConfig config;
  stats::ReplicationAnalyzer turnaround{0.95, 0.025, 3};
  stats::OnlineStats waiting;
  stats::OnlineStats makespan;
  stats::OnlineStats utilization;
  stats::OnlineStats wasted_fraction;
  stats::OnlineStats lost_work;
  /// Merged tail sketches across the cell's replications (exact bucket-count
  /// addition, so the merged p50/p95/p99 are bit-identical regardless of
  /// execution shape — see docs/METRICS.md). The turnaround /
  /// slowdown sketches pool every measured bag of every replication; the gap
  /// sketch pools every completion gap.
  stats::QuantileSketch turnaround_tail;
  stats::QuantileSketch slowdown_tail;
  stats::QuantileSketch completion_gap_tail;
  /// Per-replication end-of-run decayed busy fraction
  /// (SimulationResult::decayed_utilization).
  stats::OnlineStats decayed_utilization;
  // Checkpoint-server fault/recovery counters (all zero for a reliable
  // server); per-replication means of the SimulationResult::faults fields.
  stats::OnlineStats transfer_retries;
  stats::OnlineStats replicas_degraded;
  stats::OnlineStats server_downtime;
  /// Total DES events executed across the cell's replications (raw count, not
  /// a mean) — the numerator of events-per-second throughput reporting.
  std::uint64_t events_executed = 0;
  /// Each replication's own p95 turnaround, in replication order (the
  /// per-seed spread of exp::seed_sensitivity).
  std::vector<double> replication_p95;
  std::size_t replications = 0;
  std::size_t saturated_replications = 0;

  [[nodiscard]] bool saturated() const noexcept { return saturated_replications > 0; }
  [[nodiscard]] stats::ConfidenceInterval turnaround_ci() const {
    return turnaround.interval();
  }
};

/// Where a run()'s lanes execute, and its journal. The defaults run thread
/// lanes in this process with no journal.
struct ShardOptions {
  /// Worker processes to fork; 0 runs RunOptions::threads thread lanes in
  /// this process instead. Each worker runs its jobs one at a time, so P
  /// workers compare with P threads.
  std::size_t procs = 0;
  /// Completion-journal path (exp/journal.hpp), on either lane kind; empty =
  /// no journal (no resume).
  std::string journal_path;
  /// Read by nothing. Kept only because benchmark/trace/trace_driver.cpp
  /// assigns it and removes the directory it names; remove with the next
  /// benchmark change (ROADMAP item 4).
  std::string pool_dir;
  /// Test hook for the respawn path: the FIRST incarnation of worker
  /// `self_kill_worker` exits mid-chunk after `self_kill_jobs` replications
  /// (respawned replacements run normally). SIZE_MAX = disabled.
  std::size_t self_kill_worker = static_cast<std::size_t>(-1);
  std::size_t self_kill_jobs = 0;

  /// Reads DGSCHED_PROCS (unset or 0: thread lanes) and DGSCHED_JOURNAL
  /// (path). Same conventions as RunOptions::from_env.
  [[nodiscard]] static ShardOptions from_env(ShardOptions defaults);
  [[nodiscard]] static ShardOptions from_env() { return from_env(ShardOptions{}); }
};

/// The campaign runner. One run() builds the CellResults, opens (and
/// recovers) the journal, drives one PipelineState (exp/pipeline.hpp) from
/// its lanes, and accounts for them:
///
///  * thread lanes (ShardOptions::procs == 0): RunOptions::threads plain
///    threads pull one job at a time and deliver summaries under one mutex,
///    sharing one world cache;
///  * process lanes (procs > 0): a single-threaded fork/poll coordinator
///    (exp/shard.hpp) hands chunks to forked workers, which sample every
///    world live.
///
/// Either way each summary folds the moment its per-cell predecessors have
/// committed, in ascending replication order — the exact accumulator
/// sequences of a sequential run, regardless of lane kind, completion order,
/// speculation window or lane count. Not re-entrant: one run() at a time per
/// instance.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunOptions options, ShardOptions shard = {})
      : options_(options),
        shard_(std::move(shard)),
        world_cache_(shard_.procs == 0 && options.world_cache_bytes > 0
                         ? std::make_shared<grid::WorldCache>(options.world_cache_bytes)
                         : nullptr) {}

  /// Runs every cell to its precision target; cell order is preserved.
  /// Replication `i` of every cell uses seed mix_seed(base_seed, i) —
  /// deliberately independent of the cell, so cells are compared under
  /// common random numbers (and share one cached world realization when the
  /// world cache is on). On thread lanes, the first exception a job throws
  /// stops every lane and is rethrown once all have joined. On process
  /// lanes, must be called from a process where forking is safe, and throws
  /// std::invalid_argument up front if RunOptions::world_cache_bytes > 0.
  [[nodiscard]] std::vector<CellResult> run(const std::vector<NamedConfig>& cells);

  /// World-cache statistics after the most recent run(): the shared cache's
  /// running totals on thread lanes (it lives across run() calls). All zero
  /// on process lanes and while the cache is off.
  [[nodiscard]] const grid::WorldCacheStats& cache_stats() const noexcept { return cache_stats_; }

  // The split accessors that cache_stats() replaces: the thread lanes'
  // shared cache (null on process lanes or when world_cache_bytes == 0) and
  // the old process-lane name. Kept, like the ShardedRunner alias, only
  // because benchmark/trace/trace_driver.cpp calls them; all three go with
  // the next benchmark change.
  [[nodiscard]] const std::shared_ptr<grid::WorldCache>& world_cache() const noexcept {
    return world_cache_;
  }
  [[nodiscard]] const grid::WorldCacheStats& worker_cache_stats() const noexcept {
    return cache_stats_;
  }

  /// Execution-shape accounting for the most recent run(); `recovered`
  /// counts the replications served from the journal instead of run.
  [[nodiscard]] const ExecutionStats& exec_stats() const noexcept { return exec_stats_; }

 private:
  RunOptions options_;
  ShardOptions shard_;
  std::shared_ptr<grid::WorldCache> world_cache_;
  grid::WorldCacheStats cache_stats_{};
  ExecutionStats exec_stats_;
};

}  // namespace dg::exp
