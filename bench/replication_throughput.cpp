// Replication-throughput suite: emits BENCH_replications.json.
//
// Measures the experiment runner end to end: completed replications per
// wall-clock second over the Figure 1 cell matrix (scaled down via
// DGSCHED_BOTS), swept across pool thread counts from 1 to hardware
// concurrency (replication/throughput/workspace) and across worker-process
// counts (replication/throughput/sharded).
//
// It also meters global operator-new calls per replication (this binary
// installs the allocation interposer), both across each full sweep and for
// steady-state single-workspace replications after warmup — the latter is
// the "allocations/replication ~= 0" contract asserted by
// tests/test_alloc_free.cpp. Results use the bench/perf_json.hpp schema
// (replications_per_sec / threads / allocs_per_replication fields).
//
// Usage: ./replication_throughput [output_dir]   # default: cwd
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "exp/paper.hpp"
#include "exp/runner.hpp"
#include "sim/simulation.hpp"
#include "sim/workspace.hpp"
#include "util/alloc_interposer.hpp"

#include "perf_json.hpp"

DG_DEFINE_ALLOC_INTERPOSER();

namespace {

using dg::bench::PerfRecord;
using dg::bench::Stopwatch;

std::uint64_t allocs_now() {
  return dg::util::alloc_count().load(std::memory_order_relaxed);
}

/// Scaled-down Figure 1 cell matrix: the real policy x granularity x panel
/// grid, fewer bags per cell so a sweep finishes in seconds.
std::vector<dg::exp::NamedConfig> bench_cells() {
  dg::exp::FigureSpec spec = dg::exp::figure1_spec();
  spec.num_bots = dg::exp::env_num_bots().value_or(8);
  spec.warmup_bots = std::min<std::size_t>(spec.warmup_bots, spec.num_bots / 4);
  return dg::exp::figure_cells(spec);
}

void fill_exec_stats(PerfRecord& record, const dg::exp::ExecutionStats& stats) {
  record.worker_busy_s = stats.busy_s();
  record.worker_stall_s = stats.stall_s();
  record.spec_launched = stats.launched;
  record.spec_committed = stats.committed;
  record.spec_discarded = stats.discarded;
}

/// What one timed runner call measured: the record's shared fields, plus
/// the number only some records carry.
struct TimedRun {
  PerfRecord record;
  double allocs_per_replication = 0;  ///< operator-new calls in this process
};

/// One timed runner call over (threads, procs): `threads` thread lanes when
/// `procs` is 0, otherwise `procs` worker processes (each single-threaded).
/// Every world is sampled live. Results are bit-identical on either lane
/// kind; only the clock moves.
TimedRun timed_run(const std::string& benchmark, const std::string& config,
                   const std::vector<dg::exp::NamedConfig>& cells, dg::exp::RunOptions options,
                   std::size_t threads, std::size_t procs) {
  options.threads = threads;
  dg::exp::ShardOptions shard;
  shard.procs = procs;

  const std::uint64_t allocs_before = allocs_now();
  Stopwatch timer;
  dg::exp::ExperimentRunner runner(options, shard);
  const auto results = runner.run(cells);
  const double wall = timer.seconds();
  const std::uint64_t allocs = allocs_now() - allocs_before;

  std::size_t replications = 0;
  std::uint64_t events = 0;
  for (const dg::exp::CellResult& cell : results) {
    replications += cell.replications;
    events += cell.events_executed;
  }

  TimedRun run;
  PerfRecord& record = run.record;
  record.benchmark = benchmark;
  record.config = "fig1 cells x" + std::to_string(cells.size()) + ", bots=" +
                  std::to_string(cells.front().config.workload.num_bots) + ", " + config;
  record.threads = threads;
  record.procs = procs;
  record.wall_s = wall;
  record.replications_per_sec = wall > 0.0 ? static_cast<double>(replications) / wall : 0.0;
  record.events_per_sec = wall > 0.0 ? static_cast<double>(events) / wall : 0.0;
  record.peak_rss_kb = dg::bench::peak_rss_kb();
  fill_exec_stats(record, runner.exec_stats());
  run.allocs_per_replication =
      replications > 0 ? static_cast<double>(allocs) / static_cast<double>(replications) : 0.0;
  std::printf("  %-34s %2zu %s  %8.1f reps/s  busy %5.1fs stall %5.1fs  (%.2f s)\n",
              record.benchmark.c_str(), procs == 0 ? threads : procs,
              procs == 0 ? "thr" : "prc", record.replications_per_sec, record.worker_busy_s,
              record.worker_stall_s, wall);
  return run;
}

/// Steady-state allocations per replication through one warmed workspace on
/// a single mid-size cell.
PerfRecord steady_state_allocs() {
  dg::sim::SimulationConfig config;
  config.grid = dg::grid::GridConfig::preset(dg::grid::Heterogeneity::kHom,
                                             dg::grid::AvailabilityLevel::kHigh);
  config.workload = dg::sim::make_paper_workload(config.grid, 25000.0,
                                                 dg::workload::Intensity::kLow, 10);
  config.policy = dg::sched::PolicyKind::kFcfsShare;
  config.seed = 7;
  constexpr int kMeasured = 5;

  dg::sim::SimulationWorkspace workspace;
  (void)dg::sim::Simulation(config).run(workspace);  // warm
  const std::uint64_t before = allocs_now();
  Stopwatch timer;
  for (int i = 0; i < kMeasured; ++i) (void)dg::sim::Simulation(config).run(workspace);
  PerfRecord record;
  record.benchmark = "replication/steady_allocs/workspace";
  record.config = "HomHigh g=25000 bots=10, warmed, 5 reps";
  record.seed = config.seed;
  record.threads = 1;
  record.wall_s = timer.seconds();
  record.replications_per_sec = kMeasured / record.wall_s;
  record.allocs_per_replication = static_cast<double>(allocs_now() - before) / kMeasured;
  record.peak_rss_kb = dg::bench::peak_rss_kb();
  std::printf("  %-34s %10.1f allocs/rep  (%.2f s)\n", record.benchmark.c_str(),
              record.allocs_per_replication, record.wall_s);
  return record;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  const std::vector<dg::exp::NamedConfig> cells = bench_cells();
  const std::size_t reps = 3;

  // 1, 2, 4, ... hardware_concurrency (deduplicated, always includes both
  // endpoints). DGSCHED_THREADS overrides the top of the sweep — e.g. the
  // TSan CI job oversubscribes a small runner to force worker interleaving.
  std::vector<std::size_t> thread_counts;
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t env_threads = dg::exp::RunOptions::from_env().threads;
  const std::size_t top = env_threads != 0 ? env_threads : hw;
  for (std::size_t t = 1; t < top; t *= 2) thread_counts.push_back(t);
  thread_counts.push_back(top);

  std::cout << "replication throughput: " << cells.size() << " fig1 cells, " << reps
            << " reps each, threads 1.." << top << "\n";

  // Fixed replication count per cell (no CI loop), so every shape does
  // identical work.
  dg::exp::RunOptions sweep;
  sweep.min_replications = reps;
  sweep.max_replications = reps;
  const std::string sweep_config = "reps=" + std::to_string(reps);

  std::vector<PerfRecord> records;
  for (const std::size_t threads : thread_counts) {
    TimedRun run =
        timed_run("replication/throughput/workspace", sweep_config, cells, sweep, threads, 0);
    run.record.allocs_per_replication = run.allocs_per_replication;
    records.push_back(run.record);
  }

  // Process-count axis: the same sweep on forked worker processes.
  // DGSCHED_PROCS overrides the top of the ladder; the default reaches 4
  // even on smaller machines so the 4-vs-1 scaling row always exists
  // (oversubscribed on fewer cores).
  std::vector<std::size_t> proc_counts;
  const std::size_t env_procs = dg::exp::ShardOptions::from_env().procs;
  const std::size_t top_procs =
      env_procs > 1 ? env_procs : std::max<std::size_t>(4, std::min<std::size_t>(hw, 8));
  for (std::size_t p = 1; p < top_procs; p *= 2) proc_counts.push_back(p);
  proc_counts.push_back(top_procs);
  std::cout << "sharded (multi-process) throughput: procs 1.." << top_procs << "\n";
  for (const std::size_t procs : proc_counts) {
    records.push_back(timed_run("replication/throughput/sharded", sweep_config + ", cost-major",
                                cells, sweep, 1, procs)
                          .record);
  }

  // The multi-round precision loop (min 2, max 4, unreachable CI target, so
  // every cell runs to the cap): replications past the minimum are launched
  // one commit at a time, so this is the shape where hand-out latency and
  // straggler stall show. Thread lanes at the top thread count, then the
  // process ladder.
  std::cout << "multi-round precision loop:\n";
  dg::exp::RunOptions rounds;
  rounds.min_replications = 2;
  rounds.max_replications = 4;
  rounds.target_relative_error = 1e-9;  // unreachable: identical work per shape
  const std::string rounds_config = "reps=2..4 (uncapped tre)";
  records.push_back(
      timed_run("replication/rounds/pipelined", rounds_config, cells, rounds, top, 0).record);
  for (const std::size_t procs : proc_counts) {
    records.push_back(
        timed_run("replication/campaign/pipelined", rounds_config, cells, rounds, 1, procs)
            .record);
  }

  records.push_back(steady_state_allocs());

  const std::string path = out_dir + "/BENCH_replications.json";
  std::ofstream os(path);
  dg::bench::write_perf_json(os, records);
  std::cout << "wrote " << path << "\n";
  return 0;
}
