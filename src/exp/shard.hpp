// Process lanes: ExperimentRunner's lanes as forked worker processes
// (ShardOptions::procs > 0).
//
// The coordinator draws the same (cell, replication) jobs from the run's
// PipelineState (exp/pipeline.hpp) that thread lanes pop, but hands them out
// as cost-major chunks to N forked workers over per-worker UNIX socket
// pairs. Each worker runs its jobs through the shared job body (run_job)
// with a private SimulationWorkspace and ships the summaries back; the
// coordinator feeds them through the pipeline's ordered per-cell commit —
// the exact fold sequence of thread lanes — so the merged
// CellResults are bit-identical for ANY worker count, chunk shape,
// speculation window, worker-death schedule, or kill/resume point. Chunks
// are double-buffered per worker (a new chunk is assigned while the
// previous one runs) and chunk sizes shrink toward the campaign drain so
// the final stragglers are single replications.
//
// Result transport: each chunk reply carries its summaries inline on the
// worker's socket. Quantile sketches serialize sparsely, so a summary is at
// most a few KB and a whole chunk's reply stays far below the socket buffer.
//
// Why processes at all: address-space isolation (one crashed replication
// loses a chunk, not the campaign — the coordinator re-queues it and forks
// a replacement worker).
//
// A worker that dies is reaped, its outstanding chunks re-queued, and a
// replacement forked (bounded; a deterministically-crashing replication
// eventually surfaces as an error instead of a spin). A killed coordinator
// is covered by the journal, which ExperimentRunner::run opens for either
// lane kind; these lanes sync it after every received chunk.
//
// Coordinator threading: none. The coordinator is a single-threaded poll()
// loop, which keeps fork() safe (no locks can be held by a vanished thread)
// and the fold trivially ordered.
#pragma once

#include <vector>

#include "exp/runner.hpp"

namespace dg::exp {

class CampaignJournal;
class PipelineState;

/// Runs `state` to completion on shard.procs forked worker processes, then
/// shuts them down. Returns one WorkerLaneStats per worker with busy_s and
/// jobs set (a respawned worker reports its surviving incarnation only; the
/// caller derives stall_s). `journal` may be null.
[[nodiscard]] std::vector<WorkerLaneStats> run_process_lanes(
    const RunOptions& options, const ShardOptions& shard, const std::vector<NamedConfig>& cells,
    PipelineState& state, CampaignJournal* journal);

/// The process-lane runner's old name. Kept only because
/// benchmark/trace/trace_driver.cpp names it; remove with the next
/// benchmark change.
using ShardedRunner = ExperimentRunner;

}  // namespace dg::exp
