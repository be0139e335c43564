// The unit of result transport between a replication and its cell fold.
//
// ExperimentRunner's lanes — threads or worker processes — reduce one
// finished replication to this summary (scalars plus copies of the tail
// sketches, so the lane never retains the full SimulationResult whose
// buffers belong to a reused workspace), then fold summaries into
// CellResults in per-cell replication order. The fold sequence, not the
// execution schedule, is what makes results bit-identical across threads,
// chunk shapes, process counts, and kill/resume schedules — so the fold
// lives here, in exactly one place.
//
// serialize()/deserialize() move a summary across a process boundary (a
// worker's chunk reply, a journal record) with every double stored bitwise
// and every sketch count exact; a deserialized summary folds to the same
// bits as the original. Sketches serialize sparsely, so a summary is a few
// hundred bytes on small campaigns and 1.1-2.3 KB at the figures' 100 bags.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulation.hpp"
#include "stats/quantile_sketch.hpp"
#include "util/binary_io.hpp"

namespace dg::exp {

struct CellResult;

/// The per-replication data a CellResult folds in. Sketch counts are exact
/// integers, so folding copies in build order reproduces the sequential
/// accumulator sequences bit for bit.
struct ReplicationSummary {
  double turnaround_mean = 0.0;
  double waiting_mean = 0.0;
  double makespan_mean = 0.0;
  double utilization = 0.0;
  double decayed_utilization = 0.0;
  double wasted_fraction = 0.0;
  double lost_work = 0.0;
  double transfer_retries = 0.0;
  double replicas_degraded = 0.0;
  double server_downtime = 0.0;
  stats::QuantileSketch turnaround_tail;
  stats::QuantileSketch slowdown_tail;
  stats::QuantileSketch completion_gap_tail;
  std::uint64_t events_executed = 0;
  bool saturated = false;

  /// Appends the summary's full state to `out` (doubles bitwise, sketches
  /// via QuantileSketch::serialize).
  void serialize(std::vector<std::uint8_t>& out) const;
  /// Reconstructs a serialized summary; throws std::runtime_error on
  /// truncated or malformed input.
  [[nodiscard]] static ReplicationSummary deserialize(util::ByteReader& reader);
};

/// Reduces a finished replication to its summary.
[[nodiscard]] ReplicationSummary summarize(const sim::SimulationResult& result);

/// Folds one summary into a cell's accumulators. Callers must fold in build
/// order (cell-major, ascending replication) — the bit-identity contract.
void fold(CellResult& cell, const ReplicationSummary& summary);

/// Rough relative wall-clock cost of one replication of a cell: event count
/// scales with bags x tasks-per-bag. Only used to order job hand-out
/// (largest first, so no worker is left holding the one huge cell at the end
/// of a round); accuracy beyond the ordering does not matter.
[[nodiscard]] double expected_cost(const sim::SimulationConfig& config);

}  // namespace dg::exp
