#include "exp/replication_summary.hpp"

#include <algorithm>

#include "exp/runner.hpp"

namespace dg::exp {

void ReplicationSummary::serialize(std::vector<std::uint8_t>& out) const {
  util::put_pod(out, turnaround_mean);
  util::put_pod(out, waiting_mean);
  util::put_pod(out, makespan_mean);
  util::put_pod(out, utilization);
  util::put_pod(out, decayed_utilization);
  util::put_pod(out, wasted_fraction);
  util::put_pod(out, lost_work);
  util::put_pod(out, transfer_retries);
  util::put_pod(out, replicas_degraded);
  util::put_pod(out, server_downtime);
  turnaround_tail.serialize(out);
  slowdown_tail.serialize(out);
  completion_gap_tail.serialize(out);
  util::put_pod(out, events_executed);
  util::put_pod(out, static_cast<std::uint8_t>(saturated));
}

ReplicationSummary ReplicationSummary::deserialize(util::ByteReader& reader) {
  ReplicationSummary summary;
  summary.turnaround_mean = reader.pod<double>();
  summary.waiting_mean = reader.pod<double>();
  summary.makespan_mean = reader.pod<double>();
  summary.utilization = reader.pod<double>();
  summary.decayed_utilization = reader.pod<double>();
  summary.wasted_fraction = reader.pod<double>();
  summary.lost_work = reader.pod<double>();
  summary.transfer_retries = reader.pod<double>();
  summary.replicas_degraded = reader.pod<double>();
  summary.server_downtime = reader.pod<double>();
  summary.turnaround_tail = stats::QuantileSketch::deserialize(reader);
  summary.slowdown_tail = stats::QuantileSketch::deserialize(reader);
  summary.completion_gap_tail = stats::QuantileSketch::deserialize(reader);
  summary.events_executed = reader.pod<std::uint64_t>();
  summary.saturated = reader.pod<std::uint8_t>() != 0;
  return summary;
}

ReplicationSummary summarize(const sim::SimulationResult& result) {
  ReplicationSummary summary;
  summary.turnaround_mean = result.turnaround.mean();
  summary.waiting_mean = result.waiting.mean();
  summary.makespan_mean = result.makespan.mean();
  summary.utilization = result.utilization;
  summary.decayed_utilization = result.decayed_utilization;
  summary.wasted_fraction = result.wasted_fraction();
  summary.lost_work = result.lost_work;
  summary.transfer_retries = static_cast<double>(result.faults.transfer_retries);
  summary.replicas_degraded = static_cast<double>(result.faults.replicas_degraded);
  summary.server_downtime = result.faults.server_downtime;
  summary.turnaround_tail = result.turnaround_tail;
  summary.slowdown_tail = result.slowdown_tail;
  summary.completion_gap_tail = result.completion_gap_tail;
  summary.events_executed = result.events_executed;
  summary.saturated = result.saturated;
  return summary;
}

void fold(CellResult& cell, const ReplicationSummary& summary) {
  cell.turnaround.add(summary.turnaround_mean);
  cell.waiting.add(summary.waiting_mean);
  cell.makespan.add(summary.makespan_mean);
  cell.utilization.add(summary.utilization);
  cell.decayed_utilization.add(summary.decayed_utilization);
  cell.wasted_fraction.add(summary.wasted_fraction);
  cell.lost_work.add(summary.lost_work);
  cell.transfer_retries.add(summary.transfer_retries);
  cell.replicas_degraded.add(summary.replicas_degraded);
  cell.server_downtime.add(summary.server_downtime);
  cell.turnaround_tail.merge(summary.turnaround_tail);
  cell.slowdown_tail.merge(summary.slowdown_tail);
  cell.completion_gap_tail.merge(summary.completion_gap_tail);
  cell.events_executed += summary.events_executed;
  cell.replication_p95.push_back(summary.turnaround_tail.quantile(0.95));
  ++cell.replications;
  if (summary.saturated) ++cell.saturated_replications;
}

double expected_cost(const sim::SimulationConfig& config) {
  const double granularity =
      config.workload.types.empty() ? 1000.0 : config.workload.types.front().granularity;
  const double tasks_per_bot =
      granularity > 0.0 ? std::max(1.0, config.workload.bag_size / granularity) : 1.0;
  return static_cast<double>(config.workload.num_bots) * tasks_per_bot;
}

}  // namespace dg::exp
