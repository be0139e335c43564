// Campaign scheduling: continuous hand-out + ordered commit.
//
// PipelineState is the single state machine ExperimentRunner drives from
// either lane kind (threads or worker processes). Jobs are handed out
// continuously, so no lane ever waits at a round boundary for a straggler:
//
//  * A ready queue of launchable (cell, replication) jobs, largest expected
//    cost first (FIFO ties).
//  * A per-cell reorder buffer: completed summaries may arrive in any order,
//    but each is folded only when every lower replication of ITS cell has
//    committed. A CellResult's accumulators see exactly the sequential
//    cell-major / ascending-replication fold sequence, so every mean, CI,
//    and sketch is bitwise-equal to a sequential run — cells are
//    independent accumulators, so cross-cell commit interleaving cannot
//    change bits.
//  * The precision decision (saturated / precise_enough / cap) runs at each
//    per-cell commit k >= min_replications, so replication counts do not
//    depend on completion order.
//  * Speculation: common-random-numbers seeding makes replication (c, k)
//    deterministic regardless of execution shape, so up to
//    RunOptions::speculate replications beyond the justified frontier are
//    launched eagerly; a summary arriving for a cell that already stopped is
//    discarded, and a discard cannot perturb results because it never folds.
//
// Journaling: when a CampaignJournal is attached, records are appended in a
// canonical round-structured order — round 0 is cell-major x ascending
// replication over the first min_replications, round t >= 1 is replication
// min+t-1 for every cell whose final count exceeds it. The order is a
// persisted format (the one round-synchronized execution wrote). A cursor
// walks it and emits each record the moment it is available, so journal
// bytes are identical across any speculation window and any worker/process
// count; a resumed journal is always a canonical prefix.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "exp/replication_summary.hpp"
#include "exp/runner.hpp"
#include "rng/splitmix64.hpp"

namespace dg::sim {
class SimulationWorkspace;
}

namespace dg::exp {

class CampaignJournal;

struct PipelineJob {
  std::size_t cell = 0;
  std::size_t replication = 0;
};

/// One CellResult per cell, in cell order: label, config, and a turnaround
/// analyzer with the precision settings of `options`.
[[nodiscard]] std::vector<CellResult> make_cell_results(const std::vector<NamedConfig>& cells,
                                                        const RunOptions& options);

/// The job body every lane runs: replication `replication` of `config`,
/// seeded mix_seed(base_seed, replication) — common random numbers across
/// cells — replaying worlds through `world_cache` (null = live sampling,
/// bit-identical), run through the lane's `workspace` and reduced to its
/// summary. Kept inline: defined out of line, it ran the campaign benchmark
/// workloads 13-17% slower on a 4-vCPU host.
[[nodiscard]] inline ReplicationSummary run_job(
    const sim::SimulationConfig& config, std::size_t replication, std::uint64_t base_seed,
    const std::shared_ptr<grid::WorldCache>& world_cache, sim::SimulationWorkspace& workspace) {
  sim::SimulationConfig job = config;
  job.seed = rng::mix_seed(base_seed, replication);
  job.world_cache = world_cache;
  return summarize(sim::Simulation(std::move(job)).run(workspace));
}

/// Not thread-safe: thread lanes serialize access under one mutex; the
/// process-lane coordinator is single-threaded.
class PipelineState {
 public:
  /// `results` must outlive the state and already hold one initialized
  /// CellResult per cell. `journal` may be null (no journaling).
  PipelineState(const RunOptions& options, std::vector<CellResult>& results,
                CampaignJournal* journal);

  /// Seeds the initial launch window, then folds the journal's recovered
  /// records: a recovered (cell, replication) is never dispatched and its
  /// record is never re-appended. Throws std::runtime_error, before folding
  /// anything, when a record names a cell past the campaign's or a
  /// replication at or past max(min_replications, max_replications). Call
  /// exactly once.
  void start();

  /// True when a launchable job is queued (prunes stale entries first).
  [[nodiscard]] bool has_ready();

  /// Pops up to `target` launchable jobs, largest expected cost first.
  [[nodiscard]] std::vector<PipelineJob> pop_chunk(std::size_t target);

  /// Returns popped-but-undelivered jobs to the queue (worker death).
  void requeue(const std::vector<PipelineJob>& jobs);

  /// Delivers one completed summary: discarded if the cell already stopped
  /// below it, otherwise buffered and committed (folded) as soon as its
  /// per-cell predecessors have committed, cascading decisions / window
  /// extensions / journal emission.
  void deliver(std::size_t cell, std::size_t replication, ReplicationSummary&& summary);

  /// Every cell stopped (precise, saturated, or capped) with all committed.
  [[nodiscard]] bool finished() const noexcept { return stopped_cells_ == cells_.size(); }

  /// Jobs handed out and not yet delivered.
  [[nodiscard]] std::size_t in_flight() const noexcept { return in_flight_; }
  /// Queued + in-flight jobs — a lower bound on remaining work, used to
  /// shrink chunk sizes toward the campaign drain.
  [[nodiscard]] std::size_t remaining_estimate() const noexcept {
    return ready_.size() + in_flight_;
  }

  [[nodiscard]] std::uint64_t launched() const noexcept { return launched_; }
  [[nodiscard]] std::uint64_t committed() const noexcept { return committed_; }
  [[nodiscard]] std::uint64_t discarded() const noexcept { return discarded_; }
  [[nodiscard]] std::uint64_t recovered() const noexcept { return recovered_; }

 private:
  struct ReadyEntry {
    double cost = 0.0;
    std::size_t replication = 0;
    std::size_t cell = 0;
    std::uint64_t seq = 0;
  };
  struct ReadyOrder {
    // Max-heap on expected cost, FIFO ties: cost-major hand-out.
    bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
      if (a.cost != b.cost) return a.cost < b.cost;
      return a.seq > b.seq;
    }
  };
  struct Cell {
    std::size_t allowed = 0;    ///< replications pushed to the ready queue
    std::size_t committed = 0;  ///< replications folded
    std::size_t final_reps = 0;
    bool stopped = false;
    /// Reorder buffer: delivered-but-uncommitted summaries, plus (journal
    /// mode) committed summaries awaiting canonical-order emission.
    std::map<std::size_t, ReplicationSummary> buffer;
  };

  void extend(std::size_t c);
  void decide(std::size_t c);
  void cascade(std::size_t c);
  void deliver_impl(std::size_t cell, std::size_t replication, ReplicationSummary&& summary,
                    bool from_recovery);
  void prune_stale();
  [[nodiscard]] bool is_recovered(std::size_t c, std::size_t r) const {
    return recovered_set_.count({c, r}) != 0;
  }
  void pump_journal();

  const RunOptions& options_;
  std::vector<CellResult>& results_;
  CampaignJournal* journal_;
  std::vector<Cell> cells_;
  std::vector<double> cost_;
  std::priority_queue<ReadyEntry, std::vector<ReadyEntry>, ReadyOrder> ready_;
  std::set<std::pair<std::size_t, std::size_t>> recovered_set_;
  std::size_t stopped_cells_ = 0;
  std::size_t in_flight_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t launched_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t discarded_ = 0;
  std::uint64_t recovered_ = 0;
  // Canonical journal cursor: (round, cell, rep-within-round-0).
  std::size_t cursor_round_ = 0;
  std::size_t cursor_cell_ = 0;
  std::size_t cursor_rep_ = 0;
  bool journal_done_ = false;
};

}  // namespace dg::exp
