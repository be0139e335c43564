#include "sim/result_io.hpp"

#include <iomanip>
#include <limits>
#include <ostream>

namespace dg::sim {

void write_bot_records_csv(std::ostream& os, const SimulationResult& result) {
  const auto saved_precision = os.precision(std::numeric_limits<double>::max_digits10);
  os << "bot,arrival,first_dispatch,completion,turnaround,waiting,makespan,slowdown,"
        "granularity,num_tasks,total_work,completed\n";
  for (const BotRecord& bot : result.bots) {
    os << bot.id << ',' << bot.arrival_time << ',' << bot.first_dispatch_time << ','
       << bot.completion_time << ',' << bot.turnaround << ',' << bot.waiting_time << ','
       << bot.makespan << ',' << bot.slowdown << ',' << bot.granularity << ','
       << bot.num_tasks << ',' << bot.total_work << ',' << (bot.completed ? 1 : 0) << '\n';
  }
  os.precision(saved_precision);
}

void write_monitor_csv(std::ostream& os, const SimulationResult& result) {
  const auto saved_precision = os.precision(std::numeric_limits<double>::max_digits10);
  os << "time,active_bots,busy_machines,up_machines\n";
  for (const MonitorSample& sample : result.monitor) {
    os << sample.time << ',' << sample.active_bots << ',' << sample.busy_machines << ','
       << sample.up_machines << '\n';
  }
  os.precision(saved_precision);
}

void write_summary(std::ostream& os, const SimulationResult& result) {
  os << "bags:            " << result.bots_completed << '/' << result.bots.size()
     << (result.saturated ? "  SATURATED" : "") << '\n'
     << "turnaround:      mean " << result.turnaround.mean() << " s  (min "
     << result.turnaround.min() << ", max " << result.turnaround.max() << ")\n"
     << "  = waiting " << result.waiting.mean() << " + makespan " << result.makespan.mean()
     << '\n'
     << "  tails: p50 " << result.turnaround_tail.quantile(0.50) << ", p95 "
     << result.turnaround_tail.quantile(0.95) << ", p99 "
     << result.turnaround_tail.quantile(0.99) << '\n'
     << "slowdown:        mean " << result.slowdown.mean() << "  (Jain fairness "
     << result.slowdown_fairness() << ")\n"
     << "  tails: p50 " << result.slowdown_tail.quantile(0.50) << ", p95 "
     << result.slowdown_tail.quantile(0.95) << ", p99 "
     << result.slowdown_tail.quantile(0.99) << '\n'
     << "completion gaps: p50 " << result.completion_gap_tail.quantile(0.50) << ", p95 "
     << result.completion_gap_tail.quantile(0.95) << ", p99 "
     << result.completion_gap_tail.quantile(0.99) << "  (" << result.completion_gap_tail.count()
     << " gaps)\n"
     << "utilization:     " << result.utilization << "  (decayed "
     << result.decayed_utilization << ")\n"
     << "availability:    " << result.measured_availability << " measured\n"
     << "failures:        " << result.machine_failures << " machine, "
     << result.replica_failures << " replica\n"
     << "checkpoints:     " << result.checkpoints_saved << " saved, "
     << result.checkpoint_retrievals << " retrieved\n"
     << "replicas:        " << result.replicas_started << " started, wasted fraction "
     << result.wasted_fraction() << '\n'
     << "queue growth:    " << result.queue_growth_ratio << '\n'
     << "simulated:       " << result.end_time << " s, " << result.events_executed
     << " events\n"
     << "kernel:          " << result.kernel.events_scheduled << " scheduled, "
     << result.kernel.events_cancelled << " cancelled, heap peak "
     << result.kernel.heap_peak << '\n';
}

}  // namespace dg::sim
