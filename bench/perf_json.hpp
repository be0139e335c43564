// Machine-readable perf-report records (see docs/BENCHMARKING.md).
//
// Each benchmark in bench/perf_report.cpp produces one PerfRecord; a file's
// worth of records is serialized as a JSON array so the BENCH_*.json
// trajectory can be diffed across PRs by any tool. Deliberately dependency
// free: the writer emits the small fixed schema by hand.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__linux__)
#include <sched.h>
#endif

namespace dg::bench {

/// One benchmark measurement. Schema (a field is never renamed or given a
/// new meaning; a retired field is simply absent):
/// {benchmark, events_per_sec, wall_s, peak_rss_kb, config, seed,
///  machines_per_dispatch, transfer_retries, replicas_degraded,
///  replications_per_sec, threads, allocs_per_replication, procs, cores,
///  worker_busy_s, worker_stall_s, spec_launched, spec_committed,
///  spec_discarded, tails: {turnaround_p50, turnaround_p95, turnaround_p99,
///  slowdown_p95, slowdown_p99}}.
/// `benchmark`, `wall_s`, and `config` are always emitted; every other field
/// is omitted when it holds its zero default, so records stay readable and
/// suite-specific fields don't show up as meaningless zeros elsewhere. The
/// `tails` object follows the same rule: absent unless the suite recorded at
/// least one tail quantile, zero members omitted inside it.
struct PerfRecord {
  std::string benchmark;     ///< Stable identifier, e.g. "kernel/event_chain".
  double events_per_sec = 0; ///< Primary throughput metric.
  double wall_s = 0;         ///< Wall-clock seconds of the measured run.
  std::uint64_t peak_rss_kb = 0; ///< Process peak RSS after the run.
  std::string config;        ///< Free-form description of the workload knobs.
  std::uint64_t seed = 0;    ///< RNG seed the run used (0 = deterministic).
  /// Dispatch-path cost: SchedStats.machines_examined / replicas started
  /// (0 for kernel benchmarks, which have no scheduler). Deterministic for a
  /// given config+seed, unlike the wall-clock fields.
  double machines_per_dispatch = 0;
  /// Checkpoint-server recovery counters (FaultStats); zero everywhere except
  /// the chaos benchmarks, which run with an unreliable server. Deterministic
  /// for a given config+seed.
  std::uint64_t transfer_retries = 0;
  std::uint64_t replicas_degraded = 0;
  /// Replication-throughput suite (bench/replication_throughput.cpp) only;
  /// zero elsewhere. Completed simulation replications per wall-clock second
  /// at `threads` pool workers, and global operator-new calls per
  /// steady-state replication (warmed workspaces; ~0 on the workspace path).
  double replications_per_sec = 0;
  std::uint64_t threads = 0;
  double allocs_per_replication = 0;
  /// Sharded-runner records (exp/shard.hpp) only; zero elsewhere. Worker
  /// processes the campaign was sharded across.
  std::uint64_t procs = 0;
  /// CPUs the measuring process could run on (its affinity mask; 0 when
  /// unknown). Records the host shape beside the rates, which depend on it.
  std::uint64_t cores = 0;
  /// Execution-shape accounting (exp::ExecutionStats) for the runner suites;
  /// zero elsewhere. Summed across lanes (pool workers / worker processes):
  /// busy is time executing replications, stall is time waiting for
  /// launchable work (straggler penalty). Wall-clock derived, so not
  /// deterministic.
  double worker_busy_s = 0;
  double worker_stall_s = 0;
  /// Speculation economics of the scheduler (deterministic for a
  /// given config): replications launched beyond commits, summaries folded,
  /// and speculative summaries discarded at a precision stop.
  std::uint64_t spec_launched = 0;
  std::uint64_t spec_committed = 0;
  std::uint64_t spec_discarded = 0;
  /// Tail quantiles of the simulated metrics (docs/METRICS.md), pooled over
  /// the benchmark's replications via the merged exp::CellResult sketches.
  /// Deterministic for a given config+seed, unlike the wall-clock fields;
  /// zero for kernel benchmarks, which simulate no bags.
  double turnaround_p50 = 0;  ///< Median bag turnaround (seconds).
  double turnaround_p95 = 0;  ///< 95th-percentile bag turnaround (seconds).
  double turnaround_p99 = 0;  ///< 99th-percentile bag turnaround (seconds).
  double slowdown_p95 = 0;    ///< 95th-percentile bag slowdown (unitless).
  double slowdown_p99 = 0;    ///< 99th-percentile bag slowdown (unitless).
};

/// Peak resident set size of this process in kilobytes (0 when unavailable).
inline std::uint64_t peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // kilobytes on Linux
#endif
#else
  return 0;
#endif
}

/// CPUs in this process's affinity mask (0 when unavailable).
inline std::uint64_t affinity_cores() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::uint64_t>(CPU_COUNT(&set));
#else
  return 0;
#endif
}

/// Monotonic wall-clock stopwatch for benchmark loops.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

namespace detail {
inline void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default: os << c;
    }
  }
  os << '"';
}
}  // namespace detail

/// Writes `records` as a JSON array (pretty-printed, one record per object).
/// Numeric fields holding their zero default are omitted (see PerfRecord).
inline void write_perf_json(std::ostream& os, const std::vector<PerfRecord>& records) {
  const auto field = [&os](const char* name, auto value) {
    if (value == 0) return;
    os << ",\n    \"" << name << "\": " << value;
  };
  os << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const PerfRecord& r = records[i];
    os << "  {\n    \"benchmark\": ";
    detail::write_json_string(os, r.benchmark);
    field("events_per_sec", r.events_per_sec);
    os << ",\n    \"wall_s\": " << r.wall_s;
    field("peak_rss_kb", r.peak_rss_kb);
    os << ",\n    \"config\": ";
    detail::write_json_string(os, r.config);
    field("seed", r.seed);
    field("machines_per_dispatch", r.machines_per_dispatch);
    field("transfer_retries", r.transfer_retries);
    field("replicas_degraded", r.replicas_degraded);
    field("replications_per_sec", r.replications_per_sec);
    field("threads", r.threads);
    field("allocs_per_replication", r.allocs_per_replication);
    field("procs", r.procs);
    field("cores", r.cores);
    field("worker_busy_s", r.worker_busy_s);
    field("worker_stall_s", r.worker_stall_s);
    field("spec_launched", r.spec_launched);
    field("spec_committed", r.spec_committed);
    field("spec_discarded", r.spec_discarded);
    if (r.turnaround_p50 != 0 || r.turnaround_p95 != 0 || r.turnaround_p99 != 0 ||
        r.slowdown_p95 != 0 || r.slowdown_p99 != 0) {
      os << ",\n    \"tails\": {";
      bool first = true;
      const auto tail_field = [&os, &first](const char* name, double value) {
        if (value == 0) return;
        os << (first ? "" : ",") << "\n      \"" << name << "\": " << value;
        first = false;
      };
      tail_field("turnaround_p50", r.turnaround_p50);
      tail_field("turnaround_p95", r.turnaround_p95);
      tail_field("turnaround_p99", r.turnaround_p99);
      tail_field("slowdown_p95", r.slowdown_p95);
      tail_field("slowdown_p99", r.slowdown_p99);
      os << "\n    }";
    }
    os << "\n  }" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  os << "]\n";
}

}  // namespace dg::bench
